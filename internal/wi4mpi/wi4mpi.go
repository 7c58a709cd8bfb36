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
// Both wrap the same native bindings. Having both in the repository
// makes the paper's taxonomy executable — and the MANA wrapper stacks on
// either, since it resolves its constants through whatever table it is
// given.
//
// Every translated call charges PerCall (450 ns) of virtual time.
//
// In the README's layer diagram Wi4MPI is the preload-translation entry
// of the bindings-and-shims row (Section 4.2.2).
package wi4mpi

import (
	"time"

	"repro/internal/abi"
	"repro/internal/mpich"
	"repro/internal/simnet"
)

// PerCall is the on-the-fly translation cost every call charges. Wi4MPI's
// published overhead is higher than Mukautuva's for small messages (the
// paper notes "high overhead for small messages" among its limitations),
// which this reflects.
const PerCall = 450 * time.Nanosecond

// Preload is the Wi4MPI preload-mode translator: an abi.FuncTable whose
// visible vocabulary is MPICH's, implemented over the table beneath it.
// The translation is the embedded abi.Translator presenting mpich.Dialect.
type Preload struct {
	abi.Translator

	name string
}

var _ abi.FuncTable = (*Preload)(nil)

// New builds the translator over lower, whose vocabulary is below,
// charging PerCall to clock per call. The dialect presented is the
// source ABI the application was compiled against: MPICH's. Runtime
// handles are bare serials above MPICH's payload space. The runtime
// implementation below (the analog of Wi4MPI's WI4MPI_TO environment
// variable) comes from mukautuva.Native.
func New(lower abi.FuncTable, below *abi.Dialect, clock *simnet.Clock) *Preload {
	next := uint64(1 << 22)
	mint := func(abi.Class) abi.Handle {
		next++
		return abi.Handle(next)
	}
	name := lower.ImplName()
	return &Preload{
		Translator: abi.NewTranslator(lower, below, mpich.Dialect, "wi4mpi("+name+")", mint, clock, PerCall),
		name:       name,
	}
}

// ImplName reports the translation path.
func (p *Preload) ImplName() string { return "wi4mpi->" + p.name }
