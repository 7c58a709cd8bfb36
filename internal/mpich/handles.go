// Package mpich is the first of the simulated MPI implementations. Its
// ABI surface deliberately reproduces the MPICH family's style:
//
//   - handles are 32-bit integers whose top bits encode the object class,
//     e.g. MPI_COMM_WORLD = 0x44000000, predefined datatypes 0x4c00xxyy
//     with the size embedded in bits 8..15, and each class numbers its
//     runtime handles on its own counter;
//   - functions return C-style int error codes (MPI_SUCCESS == 0) from
//     MPICH's code table;
//   - wildcard/sentinel constants use MPICH's values (MPI_ANY_SOURCE=-2,
//     MPI_PROC_NULL=-1).
//
// Collective algorithms follow MPICH's classic selections: binomial
// broadcast (scatter+allgather for large messages), recursive-doubling and
// Rabenseifner allreduce, Bruck and pairwise alltoall, dissemination
// barrier.
//
// That vocabulary and the policy are all this package holds. Dialect
// writes the vocabulary down once — handle values, integer constants and
// the error-code table of errors.go — and Impl hands it and the policy to
// mpicore, whose one Binding is the "compiled against MPICH's mpi.h"
// native function table (Impl.Init). The Mukautuva wrap adapter
// (internal/mukautuva) translates between this dialect and the standard
// ABI, and Wi4MPI (internal/wi4mpi) presents it upward.
//
// In the paper this is one of the two incompatible ABIs that motivate
// standardization (Sections 2 and 4.1): the "MPICH" legs of every stack
// in the Section 5 evaluation, and the restart-side implementation of the
// Figure 6 cross-implementation experiment, bind here.
//
// In the README's layer diagram this is the first entry of the
// implementation-packages row: a thin ABI + policy layer over the shared
// runtime, nothing more.
package mpich

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/ops"
	"repro/internal/types"
)

// Handle is an MPICH-style object handle: a 32-bit integer with the object
// class in the top byte.
type Handle int32

// Handle class prefixes (top byte), matching MPICH's HANDLE_KIND encoding
// closely enough to feel native.
const (
	handleClassMask Handle = 0x7c000000
	classComm       Handle = 0x44000000
	classGroup      Handle = 0x48000000
	classDatatype   Handle = 0x4c000000
	classOp         Handle = 0x58000000
	classRequest    Handle = 0x2c000000
	classNullBit    Handle = 0x00800000 // set on null handles
)

// Predefined handles.
const (
	CommNull  Handle = classComm | classNullBit
	CommWorld Handle = classComm | 0x0
	CommSelf  Handle = classComm | 0x1

	GroupNull  Handle = classGroup | classNullBit
	GroupEmpty Handle = classGroup | 0x0

	DatatypeNull Handle = classDatatype | classNullBit

	OpNull Handle = classOp | classNullBit

	RequestNull Handle = classRequest | classNullBit
)

// Integer constants, MPICH values.
const (
	AnySource = -2
	ProcNull  = -1
	AnyTag    = -1
	Root      = -3
	Undefined = -32766
	TagUB     = 0x3fffffff
)

// dynBase is the first payload used for runtime-allocated handles; smaller
// payloads are predefined.
const dynBase = 0x00010000

// class extracts the class bits of a handle.
func (h Handle) class() Handle { return h & handleClassMask }

// String renders a handle for diagnostics.
func (h Handle) String() string { return fmt.Sprintf("mpich:%#x", int32(h)) }

// TypeHandle returns the MPICH handle of a predefined datatype. Real MPICH
// encodes the type's size in bits 8..15 of the handle; we reproduce that.
func TypeHandle(k types.Kind) Handle {
	return classDatatype | Handle(k.Size())<<8 | Handle(k)
}

// OpHandle returns the MPICH handle of a predefined reduction operator.
// Real MPICH numbers these 0x58000001.. in mpi.h order.
func OpHandle(op ops.Op) Handle { return classOp | Handle(op) }

// toAbi widens a native handle into the opaque 64-bit slot. The value does
// NOT follow the standard ABI encoding — it is MPICH's own bit pattern,
// exactly as a natively compiled binary would hold.
func toAbi(h Handle) abi.Handle { return abi.Handle(uint64(uint32(int32(h)))) }

// classBits pairs each object class with its handle prefix.
var classBits = [...]Handle{
	abi.ClassComm: classComm, abi.ClassGroup: classGroup, abi.ClassType: classDatatype,
	abi.ClassOp: classOp, abi.ClassRequest: classRequest,
}

// classOf recovers the object class from a widened MPICH handle's top
// bits; ClassNone for anything that is not MPICH-shaped.
func classOf(h abi.Handle) abi.Class {
	n := Handle(int32(uint32(h)))
	if toAbi(n) != h {
		return abi.ClassNone
	}
	for c, bits := range classBits {
		if bits != 0 && n.class() == bits {
			return abi.Class(c)
		}
	}
	return abi.ClassNone
}

// newMint is MPICH's handle allocation for one rank: a counter per class,
// numbering payloads above the predefined ones.
func newMint() func(abi.Class) abi.Handle {
	var next [len(classBits)]Handle
	return func(c abi.Class) abi.Handle {
		next[c]++
		return toAbi(classBits[c] | (dynBase + next[c]))
	}
}
