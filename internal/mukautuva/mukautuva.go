// Package mukautuva reproduces the Mukautuva ABI compatibility layer
// (Hammond, 2023): a shared library (libmuk.so, the Shim here) that
// implements the proposed standard MPI ABI by translating every handle,
// constant, status object and error code to whichever real MPI
// implementation was selected at runtime. Where libmuk.so dlopen()s a
// per-implementation wrap adapter (libmpich-wrap.so, libompi-wrap.so),
// Native looks the implementation up in the one list of native bindings,
// and New wraps the table it initializes, or any table it is handed.
// Every translated call charges PerCall (180 ns) of virtual time.
//
// An application (or a checkpointing package like internal/mana) bound to
// the Shim is "compiled once": the same binary state — including
// serialized handles in a checkpoint image — remains meaningful when the
// underlying implementation is swapped, which is exactly the property the
// paper's cross-implementation restart experiment (Figure 6) relies on.
//
// In the README's layer diagram the shim is the standard-ABI entry of
// the bindings-and-shims row (Section 4.2.1).
package mukautuva

import (
	"repro/internal/abi"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/openmpi"
	"repro/internal/stdabi"
)

// natives lists the implementations this repository ships, each as its
// ABI surface in data, sorted by name. It is the one implementation
// table: the shim's targets, the native stacks of internal/core and
// Wi4MPI's targets come from it, so a further implementation is its own
// package plus one entry here. Each Impl carries what a wrap adapter
// adds to the MPI API (its dialect, whose code table is MPI_Error_class,
// and its version banner); the standard-ABI implementation's dialect is
// abi.Std itself, so it slots under the shim for free, the future the
// paper's Section 6 anticipates where libmuk.so becomes unnecessary.
var natives = []*mpicore.Impl{mpich.Impl, openmpi.Impl, stdabi.Impl}

// Implementations lists the implementation names, sorted.
func Implementations() []string {
	out := make([]string, len(natives))
	for i, im := range natives {
		out[i] = im.Dialect.Name
	}
	return out
}

// Native returns the named implementation, or ErrArg for a name no
// entry of natives carries.
func Native(name string) (*mpicore.Impl, error) {
	for _, im := range natives {
		if im.Dialect.Name == name {
			return im, nil
		}
	}
	return nil, abi.Errorf(abi.ErrArg, "mukautuva",
		"no wrap adapter for implementation %q (have %v)", name, Implementations())
}
