package mukautuva

import (
	"time"

	"repro/internal/abi"
	"repro/internal/simnet"
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
// translation itself is the embedded abi.Translator in the standard
// dialect.
type Shim struct {
	abi.Translator

	name string
}

var _ abi.FuncTable = (*Shim)(nil)

// New builds the shim over lower, whose native error codes errClass maps
// to standard classes (the wrap adapter's MPI_Error_class), charging
// cfg.PerCall to clock per call.
func New(lower abi.FuncTable, errClass func(code int) abi.ErrClass, clock *simnet.Clock, cfg Config) *Shim {
	// Runtime handles are standard-encoded, payloads above the predefined
	// range, one serial across classes.
	next := uint64(abi.PredefinedLimit)
	mint := func(c abi.Class) abi.Handle {
		next++
		return abi.MakeHandle(c, next)
	}
	name := lower.ImplName()
	return &Shim{
		Translator: abi.NewTranslator(lower, clock, cfg.PerCall,
			abi.StdDialect("mukautuva("+name+")", errClass, mint)),
		name: name,
	}
}

// ImplName names the underlying implementation.
func (s *Shim) ImplName() string { return s.name }
