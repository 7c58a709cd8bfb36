// Package wi4mpi reproduces Wi4MPI's "preload" mode, the alternative
// interoperability strategy the paper surveys in Section 4.2.2: instead of
// compiling the application against a standardized ABI, the application
// stays compiled against one implementation's ABI (MPICH's here, the
// common case Wi4MPI targets), and a translation layer converts every
// call on the fly to whatever implementation is actually loaded at
// runtime.
//
// Contrast with internal/mukautuva: Mukautuva translates FROM the
// standard ABI, Wi4MPI translates FROM a concrete implementation's ABI.
// Both land on the same wrap adapters. Having both in the repository
// makes the paper's taxonomy executable — and the MANA wrapper stacks on
// either, since it resolves its constants through whatever table it is
// given.
//
// In the README's layer diagram Wi4MPI is the preload-translation entry
// of the bindings-and-shims row (Section 4.2.2).
package wi4mpi

import (
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mpich"
	"repro/internal/mukautuva"
)

// Config tunes the translator's virtual-time cost. Wi4MPI's published
// overhead is higher than Mukautuva's for small messages (the paper notes
// "high overhead for small messages" among its limitations), which the
// default reflects.
type Config struct {
	// PerCall is the on-the-fly translation cost charged per MPI call.
	PerCall time.Duration
}

// DefaultConfig reflects Wi4MPI's heavier per-call translation.
func DefaultConfig() Config { return Config{PerCall: 450 * time.Nanosecond} }

// Preload is the Wi4MPI preload-mode translator: an abi.FuncTable whose
// visible vocabulary is MPICH's, implemented over any wrap adapter. The
// translation is the embedded abi.Translator in the MPICH dialect.
type Preload struct {
	abi.Translator

	name string
}

var _ abi.FuncTable = (*Preload)(nil)

// Load selects the runtime implementation by name (the analog of Wi4MPI's
// WI4MPI_TO environment variable) and builds the translator.
func Load(target string, w *fabric.World, rank int, cfg Config) (*Preload, error) {
	lib, err := mukautuva.LoadLib(target, w, rank)
	if err != nil {
		return nil, err
	}
	// The dialect is the source ABI the application was compiled against:
	// MPICH's handle values, integer constants and error codes, exactly
	// what MPICH's native binding (mpich.Impl) hands out. Runtime handles
	// are bare serials above MPICH's payload space.
	next := uint64(1 << 22)
	dialect := abi.Dialect{
		Lookup:    mpich.Impl.Lookup,
		LookupInt: mpich.Impl.LookupInt,
		Mint: func(abi.Class) abi.Handle {
			next++
			return abi.Handle(next)
		},
		ClassOf:   mpich.ClassOfHandle,
		StatusErr: func(c abi.ErrClass) int32 { return int32(mpich.CodeOfClass(c)) },
		Label:     "wi4mpi(" + target + ")",
		ErrClass:  lib.ErrClass,
	}
	return &Preload{
		Translator: abi.NewTranslator(lib.Table, w.Endpoint(rank).Clock(), cfg.PerCall, dialect),
		name:       target,
	}, nil
}

// Target names the implementation actually running underneath.
func (p *Preload) Target() string { return p.name }

// ImplName reports the translation path.
func (p *Preload) ImplName() string { return "wi4mpi->" + p.name }
