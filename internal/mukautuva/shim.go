package mukautuva

import (
	"time"

	"repro/internal/abi"
	"repro/internal/simnet"
	"repro/internal/stdabi"
)

// PerCall is the translation cost every shim call charges to the rank's
// clock, the per-call overhead the paper measures for the Mukautuva layer
// and the calibration of the paper figures.
const PerCall = 180 * time.Nanosecond

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
// PerCall to clock per call. Runtime handles are minted as the
// standard-ABI implementation mints its own.
func New(lower abi.FuncTable, below *abi.Dialect, clock *simnet.Clock) *Shim {
	name := lower.ImplName()
	return &Shim{
		Translator: abi.NewTranslator(lower, below, abi.Std, "mukautuva("+name+")",
			stdabi.Impl.NewMint(), clock, PerCall),
		name: name,
	}
}

// ImplName names the underlying implementation.
func (s *Shim) ImplName() string { return s.name }
