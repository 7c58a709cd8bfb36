package abi

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/types"
)

// Sym names a predefined object constant that an application resolves at
// bind time. This models compile-time constant substitution from mpi.h:
// binding an application to a native MPICH table yields MPICH's handle
// values, binding to a standard-ABI table (Mukautuva or MANA) yields the
// fixed values in this package. Application code never hardcodes handle
// bit patterns.
type Sym uint16

// Object constant symbols.
const (
	SymInvalid Sym = iota
	SymCommWorld
	SymCommSelf
	SymCommNull
	SymGroupNull
	SymGroupEmpty
	SymTypeNull
	SymOpNull
	SymRequestNull
	symTypeBase // + types.Kind
)

const symOpBase = symTypeBase + Sym(types.KindFloat64Int32) + 16 // + ops.Op

// SymForKind returns the symbol of a primitive datatype.
func SymForKind(k types.Kind) Sym {
	if !k.Valid() {
		panic(fmt.Sprintf("abi: no symbol for kind %v", k))
	}
	return symTypeBase + Sym(k)
}

// SymForOp returns the symbol of a predefined reduction operator.
func SymForOp(op ops.Op) Sym {
	if !op.Valid() {
		panic(fmt.Sprintf("abi: no symbol for op %v", op))
	}
	return symOpBase + Sym(op)
}

// KindForSym inverts SymForKind.
func KindForSym(s Sym) (types.Kind, bool) {
	if s < symTypeBase || s >= symOpBase {
		return types.KindInvalid, false
	}
	k := types.Kind(s - symTypeBase)
	return k, k.Valid()
}

// OpForSym inverts SymForOp.
func OpForSym(s Sym) (ops.Op, bool) {
	if s < symOpBase {
		return ops.OpNull, false
	}
	op := ops.Op(s - symOpBase)
	return op, op.Valid()
}

// IntSym names a predefined integer constant (compare Sym for handles).
type IntSym uint8

// Integer constant symbols.
const (
	IntAnySource IntSym = iota
	IntAnyTag
	IntProcNull
	IntRoot
	IntUndefined
	IntTagUB
)

// StdLookup resolves a symbol to its standard-ABI handle value. Standard
// ABI tables (Mukautuva, MANA) use this directly.
func StdLookup(s Sym) Handle {
	switch s {
	case SymCommWorld:
		return CommWorld
	case SymCommSelf:
		return CommSelf
	case SymCommNull:
		return CommNull
	case SymGroupNull:
		return GroupNull
	case SymGroupEmpty:
		return GroupEmpty
	case SymTypeNull:
		return TypeNull
	case SymOpNull:
		return OpNull
	case SymRequestNull:
		return RequestNull
	}
	if k, ok := KindForSym(s); ok {
		return TypeHandle(k)
	}
	if op, ok := OpForSym(s); ok {
		return OpHandle(op)
	}
	return HandleNull
}

// StdLookupInt resolves an integer symbol to its standard-ABI value.
func StdLookupInt(s IntSym) int {
	switch s {
	case IntAnySource:
		return AnySource
	case IntAnyTag:
		return AnyTag
	case IntProcNull:
		return ProcNull
	case IntRoot:
		return Root
	case IntUndefined:
		return Undefined
	case IntTagUB:
		return TagUB
	}
	return Undefined
}

// FuncTable is the MPI function table — the ABI's callable surface. Every
// layer of the paper's stack implements it:
//
//	the native binding (internal/mpicore.Binding, one body for every
//	                    implementation's vocabulary)
//	the ABI shim       (internal/mukautuva.Shim)
//	the preload layer  (internal/wi4mpi.Preload)
//	the checkpointer   (internal/mana.Wrapper)
//
// so layers stack by simple interface wrapping, the Go analog of function
// interposition via LD_PRELOAD.
//
// Buffers are byte slices interpreted through datatype handles, counts are
// element counts, and non-nil *Status out-parameters are filled on receive
// completion, mirroring the C API shape.
type FuncTable interface {
	// ImplName identifies the bottom MPI library (e.g. "mpich",
	// "openmpi"), like MPI_Get_library_version.
	ImplName() string

	// Lookup resolves predefined object constants at bind time; LookupInt
	// resolves integer constants (wildcards, PROC_NULL, ...).
	Lookup(Sym) Handle
	LookupInt(IntSym) int

	// Point-to-point.
	Send(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) error
	Recv(buf []byte, count int, dtype Handle, source, tag int, comm Handle, status *Status) error
	Isend(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) (Handle, error)
	Irecv(buf []byte, count int, dtype Handle, source, tag int, comm Handle) (Handle, error)
	Wait(req Handle, status *Status) error
	Test(req Handle, status *Status) (bool, error)
	Waitall(reqs []Handle, statuses []Status) error
	Sendrecv(sendbuf []byte, scount int, stype Handle, dest, stag int,
		recvbuf []byte, rcount int, rtype Handle, source, rtag int,
		comm Handle, status *Status) error
	// Probe blocks until a matching message is available without receiving
	// it; Iprobe polls. The status carries the pending message's source,
	// tag and byte count (MANA's drain protocol depends on these).
	Probe(source, tag int, comm Handle, status *Status) error
	Iprobe(source, tag int, comm Handle, status *Status) (bool, error)

	// Collectives.
	Barrier(comm Handle) error
	Bcast(buf []byte, count int, dtype Handle, root int, comm Handle) error
	Reduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, root int, comm Handle) error
	Allreduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, comm Handle) error
	Gather(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error
	Allgather(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, comm Handle) error
	Scatter(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error
	Alltoall(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, comm Handle) error

	// Communicator management.
	CommSize(comm Handle) (int, error)
	CommRank(comm Handle) (int, error)
	CommDup(comm Handle) (Handle, error)
	CommSplit(comm Handle, color, key int) (Handle, error)
	CommCreate(comm, group Handle) (Handle, error)
	CommGroup(comm Handle) (Handle, error)
	CommFree(comm Handle) error

	// Groups.
	GroupSize(group Handle) (int, error)
	GroupRank(group Handle) (int, error)
	GroupIncl(group Handle, ranks []int) (Handle, error)
	GroupExcl(group Handle, ranks []int) (Handle, error)
	GroupTranslateRanks(g1 Handle, ranks []int, g2 Handle) ([]int, error)
	GroupFree(group Handle) error

	// Derived datatypes.
	TypeContiguous(count int, inner Handle) (Handle, error)
	TypeVector(count, blocklen, stride int, inner Handle) (Handle, error)
	TypeIndexed(blocklens, displs []int, inner Handle) (Handle, error)
	TypeCreateStruct(blocklens, displs []int, typs []Handle) (Handle, error)
	TypeCommit(dtype Handle) error
	TypeFree(dtype Handle) error
	TypeSize(dtype Handle) (int, error)
	TypeExtent(dtype Handle) (int, error)
	GetCount(status *Status, dtype Handle) (int, error)

	// ULFM fault tolerance (the MPIX_Comm_* extensions). CommRevoke
	// poisons a communicator so every member's subsequent traffic on it
	// raises ErrRevoked; CommShrink derives a survivors-only
	// communicator (it works on revoked communicators); CommAgree is the
	// fault-tolerant agreement (bitwise AND over living participants'
	// flags, acknowledging failures as it goes); CommFailureAck /
	// CommFailureGetAcked manage the acknowledged-failure set that
	// re-arms wildcard receives. Error codes surface in each
	// implementation's own MPIX numbering below the translation layers —
	// the newest, least-standardized corner of the ABI.
	CommRevoke(comm Handle) error
	CommShrink(comm Handle) (Handle, error)
	CommAgree(comm Handle, flag uint64) (uint64, error)
	CommFailureAck(comm Handle) error
	CommFailureGetAcked(comm Handle) (Handle, error)

	// Reduction operators. User operators are registered by name in
	// internal/ops so they survive checkpoint/restart.
	OpCreate(name string, commute bool) (Handle, error)
	OpFree(op Handle) error

	// Abort terminates the job with the given error code.
	Abort(comm Handle, code int) error
}
