package mukautuva

import (
	"time"

	"repro/internal/abi"
	"repro/internal/simnet"
	"repro/internal/stdabi"
)

// Config tunes the shim's virtual-time cost model. Every translated call
// charges PerCall to the rank's clock, reproducing the per-call overhead
// the paper measures for the Mukautuva layer.
type Config struct {
	// PerCall is the translation cost charged per MPI call.
	PerCall time.Duration
}

// DefaultConfig matches the calibration used for the paper figures.
func DefaultConfig() Config {
	return Config{PerCall: 180 * time.Nanosecond}
}

// Shim is the libmuk.so analog: an abi.FuncTable whose handle space,
// constants, status conventions and error classes are the standard ABI's,
// implemented by translating every call onto the table beneath it. The
// translation itself is the embedded abi.Translator presenting abi.Std.
type Shim struct {
	abi.Translator

	name string
}

var _ abi.FuncTable = (*Shim)(nil)

// New builds the shim over lower, whose vocabulary is below, charging
// cfg.PerCall to clock per call. Runtime handles are minted as the
// standard-ABI implementation mints its own.
func New(lower abi.FuncTable, below *abi.Dialect, clock *simnet.Clock, cfg Config) *Shim {
	name := lower.ImplName()
	return &Shim{
		Translator: abi.NewTranslator(lower, below, abi.Std, "mukautuva("+name+")",
			stdabi.Impl.NewMint(), clock, cfg.PerCall),
		name: name,
	}
}

// ImplName names the underlying implementation.
func (s *Shim) ImplName() string { return s.name }
