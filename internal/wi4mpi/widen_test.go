package wi4mpi

import (
	"repro/internal/abi"
	"repro/internal/mpich"
)

// widen embeds an MPICH 32-bit handle in the opaque 64-bit slot the way
// the native binding does: how the tests spell "a constant from MPICH's
// mpi.h" without going through the translator under test.
func widen(h mpich.Handle) abi.Handle { return abi.Handle(uint64(uint32(int32(h)))) }
