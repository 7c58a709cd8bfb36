package mukautuva

import (
	"repro/internal/abi"
	"repro/internal/fabric"
)

// Shim is the libmuk.so analog: an abi.FuncTable whose handle space,
// constants, status conventions and error classes are the standard ABI's,
// implemented by translating every call onto a wrap adapter. The
// translation itself is the embedded abi.Translator in the standard
// dialect; what is Mukautuva's own is which adapter was loaded and when
// it is released.
type Shim struct {
	abi.Translator

	name      string
	lib       *WrapLib
	finalized bool
}

var _ abi.FuncTable = (*Shim)(nil)

// newShim builds the translation tables for a freshly loaded wrap adapter.
func newShim(name string, lib *WrapLib, ep *fabric.Endpoint, cfg Config) *Shim {
	// Runtime handles are standard-encoded, payloads above the predefined
	// range, one serial across classes.
	next := uint64(abi.PredefinedLimit)
	mint := func(c abi.Class) abi.Handle {
		next++
		return abi.MakeHandle(c, next)
	}
	return &Shim{
		Translator: abi.NewTranslator(lib.Table, ep.Clock(), cfg.PerCall,
			abi.StdDialect("mukautuva("+name+")", lib.ErrClass, mint)),
		name: name,
		lib:  lib,
	}
}

// Name returns the loaded implementation's registry name.
func (s *Shim) Name() string { return s.name }

// Version returns the lower library's version banner.
func (s *Shim) Version() string { return s.lib.Version }

// Finalize releases the lower half. The shim becomes unusable.
func (s *Shim) Finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	if s.lib.Finalize != nil {
		s.lib.Finalize()
	}
}

// ImplName names the underlying implementation.
func (s *Shim) ImplName() string { return s.name }
