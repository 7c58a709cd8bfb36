// Package openmpi is the second simulated MPI implementation. Where
// internal/mpich reproduces the MPICH family's ABI, this package
// reproduces Open MPI's:
//
//   - handles are pointers to live objects in real Open MPI (the
//     &ompi_mpi_comm_world style), not encoded integers. An opaque 64-bit
//     slot cannot carry a Go pointer, so here a handle is the object's
//     slot number in a per-rank registry: fixed small slots for the
//     predefined objects, one shared counter for everything created at
//     runtime — class-free numbers, like addresses;
//   - wildcard/sentinel constants use different values from MPICH
//     (MPI_ANY_SOURCE=-1, MPI_PROC_NULL=-3 here);
//   - error codes follow Open MPI's table (MPI_ERR_REQUEST=7,
//     MPI_ERR_ROOT=8, ... differing from MPICH's numbering).
//
// The collective suite follows Open MPI's "tuned" module flavor: binary
// tree and pipelined-chain broadcast, ring allreduce for long messages,
// linear gather/scatter, Bruck allgather, linear alltoall with nonblocking
// overlap, and a recursive-doubling barrier. The algorithms themselves
// live in the shared internal/mpicore runtime, and so does the native
// binding (Impl.Init); this package contributes the tuned thresholds
// (its Policy) and its Dialect — the slot handle model, the constant
// values and the error-code table, written down once — which is exactly
// the ABI surface the paper says is all that separates implementations.
//
// The deliberate ABI mismatch with internal/mpich is the point (the
// incompatibility of Section 2 that the paper's standard ABI removes):
// the Mukautuva shim (internal/mukautuva) has to translate every handle,
// constant, status record and error code that crosses the boundary. In
// the Section 5 evaluation this package is the "Open MPI" leg of every
// stack, and the launch-side implementation of Figure 6's
// checkpoint-under-Open-MPI, restart-under-MPICH experiment.
//
// In the README's layer diagram this is the second entry of the
// implementation-packages row, a thin ABI + policy layer like its MPICH
// sibling.
package openmpi

import (
	"repro/internal/abi"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/types"
)

// Version identifies the simulated library, mirroring the paper's testbed.
const Version = "Open MPI 3.1.2 (simulated)"

// Integer constants, Open MPI values (deliberately different from MPICH).
const (
	AnySource = -1
	AnyTag    = -1
	ProcNull  = -3
	Root      = -4
	Undefined = -32766
	TagUB     = 0x7fffffff
)

// Open MPI's error code table (values differ from MPICH's).
const (
	Success     = 0
	ErrBuffer   = 1
	ErrCount    = 2
	ErrType     = 3
	ErrTag      = 4
	ErrComm     = 5
	ErrRank     = 6
	ErrRequest  = 7
	ErrRoot     = 8
	ErrGroup    = 9
	ErrOp       = 10
	ErrTopology = 11
	ErrDims     = 12
	ErrArg      = 13
	ErrUnknown  = 14
	ErrTruncate = 15
	ErrOther    = 16
	ErrIntern   = 17
	errCount    = 18

	// ULFM (MPIX_*) error classes, in Open MPI's numbering — appended
	// after the classic table like Open MPI 5's ULFM integration, and
	// deliberately different from the simulated MPICH's 71/72: the two
	// implementations cannot even agree on what "a process failed" is
	// called, which is the paper's fault-tolerance ABI argument in
	// miniature.
	ErrProcFailed = 54 // MPIX_ERR_PROC_FAILED
	ErrRevoked    = 56 // MPIX_ERR_REVOKED
)

var errStrings = [errCount]string{
	Success:     "MPI_SUCCESS: no errors",
	ErrBuffer:   "MPI_ERR_BUFFER: invalid buffer pointer",
	ErrCount:    "MPI_ERR_COUNT: invalid count argument",
	ErrType:     "MPI_ERR_TYPE: invalid datatype",
	ErrTag:      "MPI_ERR_TAG: invalid tag",
	ErrComm:     "MPI_ERR_COMM: invalid communicator",
	ErrRank:     "MPI_ERR_RANK: invalid rank",
	ErrRequest:  "MPI_ERR_REQUEST: invalid request",
	ErrRoot:     "MPI_ERR_ROOT: invalid root",
	ErrGroup:    "MPI_ERR_GROUP: invalid group",
	ErrOp:       "MPI_ERR_OP: invalid reduce operation",
	ErrTopology: "MPI_ERR_TOPOLOGY: invalid communicator topology",
	ErrDims:     "MPI_ERR_DIMS: invalid dimension argument",
	ErrArg:      "MPI_ERR_ARG: invalid argument of some other kind",
	ErrUnknown:  "MPI_ERR_UNKNOWN: unknown error",
	ErrTruncate: "MPI_ERR_TRUNCATE: message truncated",
	ErrOther:    "MPI_ERR_OTHER: known error not in this list",
	ErrIntern:   "MPI_ERR_INTERN: internal error",
}

// ErrorString mirrors MPI_Error_string.
func ErrorString(code int) string {
	switch code {
	case ErrProcFailed:
		return "MPIX_ERR_PROC_FAILED: process in the communicator has failed"
	case ErrRevoked:
		return "MPIX_ERR_REVOKED: communicator has been revoked"
	}
	if code >= 0 && code < errCount {
		return errStrings[code]
	}
	return "MPI_ERR_UNKNOWN: unknown error code"
}

// eagerLimit is Open MPI's (BTL tcp flavored) eager/rendezvous
// switchover, intentionally lower than MPICH's.
const eagerLimit = 4 * 1024

// Open MPI "tuned"-style algorithm selection thresholds (bytes).
const (
	bcastBinaryMax    = 32768    // binary tree below, pipelined chain above
	bcastSegSize      = 8 * 1024 // chain pipeline segment size
	allreduceRDMax    = 32768    // recursive doubling below, ring above
	allgatherBruckMax = 1024     // Bruck below (per block), ring above
	// alltoallBruckMax selects Bruck below (the tuned module's
	// small-message choice) and basic linear with nonblocking overlap
	// above. The thresholds and the linear algorithm differ from MPICH's
	// Bruck/pairwise selection, giving the two implementations visibly
	// different alltoall curves at medium sizes.
	alltoallBruckMax = 200
)

// Policy is Open MPI's tuned algorithm personality over the shared
// runtime.
func Policy() mpicore.Policy {
	return mpicore.Policy{
		EagerMax: eagerLimit,
		// 'O': keep openmpi's cid stream distinct from mpich's.
		DeriveCID: mpicore.SaltedCIDDeriver('O'),
		Barrier:   (*mpicore.Proc).BarrierRDFold,
		Bcast: func(p *mpicore.Proc, c *mpicore.Comm, packed []byte, root int, tag int32) int {
			if len(packed) <= bcastBinaryMax {
				return p.BcastBinaryTree(c, packed, root, tag)
			}
			return p.BcastChain(c, packed, root, tag, bcastSegSize)
		},
		Reduce: (*mpicore.Proc).ReduceBinaryTree,
		Allreduce: func(p *mpicore.Proc, c *mpicore.Comm, acc []byte, o *mpicore.Op, k types.Kind, tag int32) int {
			elems := len(acc) / k.Size()
			if len(acc) > allreduceRDMax && elems >= c.Size() {
				return p.AllreduceRing(c, acc, o, k, tag)
			}
			return p.AllreduceRecDoubling(c, acc, o, k, tag, 63)
		},
		Gather:  (*mpicore.Proc).GatherLinear,
		Scatter: (*mpicore.Proc).ScatterLinear,
		Allgather: func(p *mpicore.Proc, c *mpicore.Comm, region []byte, blockSz int, tag int32) int {
			if blockSz <= allgatherBruckMax {
				return p.AllgatherBruck(c, region, blockSz, tag)
			}
			return p.AllgatherRing(c, region, blockSz, tag)
		},
		Alltoall: func(p *mpicore.Proc, c *mpicore.Comm, out, in []byte, blockSz int, tag int32) int {
			if blockSz <= alltoallBruckMax && c.Size() > 2 {
				return p.AlltoallBruck(c, out, in, blockSz, tag)
			}
			return p.AlltoallOverlap(c, out, in, blockSz, tag)
		},
	}
}

// Fixed registry slots for predefined objects. Null handles of each class
// get distinct sentinel slots that no object ever occupies.
const (
	slotCommNull uint64 = iota + 1
	slotCommWorld
	slotCommSelf
	slotGroupNull
	slotGroupEmpty
	slotTypeNull
	slotOpNull
	slotReqNull
	slotTypeBase = 0x100 // + types.Kind
	slotOpBase   = 0x200 // + ops.Op
	slotDynBase  = 0x10000
)

// Dialect is Open MPI's vocabulary: registry slots for handles, which
// carry no class (like addresses), its integer constants, and its
// error-code table.
var Dialect = &abi.Dialect{
	Name: "openmpi",
	Fixed: [...]abi.Handle{
		abi.SymInvalid:     abi.Handle(slotTypeNull),
		abi.SymCommWorld:   abi.Handle(slotCommWorld),
		abi.SymCommSelf:    abi.Handle(slotCommSelf),
		abi.SymCommNull:    abi.Handle(slotCommNull),
		abi.SymGroupNull:   abi.Handle(slotGroupNull),
		abi.SymGroupEmpty:  abi.Handle(slotGroupEmpty),
		abi.SymTypeNull:    abi.Handle(slotTypeNull),
		abi.SymOpNull:      abi.Handle(slotOpNull),
		abi.SymRequestNull: abi.Handle(slotReqNull),
	},
	Type: func(k types.Kind) abi.Handle { return abi.Handle(slotTypeBase + uint64(k)) },
	Op:   func(op ops.Op) abi.Handle { return abi.Handle(slotOpBase + uint64(op)) },
	Ints: [...]int{
		abi.IntAnySource: AnySource,
		abi.IntAnyTag:    AnyTag,
		abi.IntProcNull:  ProcNull,
		abi.IntRoot:      Root,
		abi.IntUndefined: Undefined,
		abi.IntTagUB:     TagUB,
	},
	ClassOf: func(abi.Handle) abi.Class { return abi.ClassNone },
	// MPI_ERR_PENDING has no slot here: it collapses to ErrOther.
	Codes: abi.Codes{
		Success:       Success,
		ErrBuffer:     ErrBuffer,
		ErrCount:      ErrCount,
		ErrType:       ErrType,
		ErrTag:        ErrTag,
		ErrComm:       ErrComm,
		ErrRank:       ErrRank,
		ErrRoot:       ErrRoot,
		ErrGroup:      ErrGroup,
		ErrOp:         ErrOp,
		ErrArg:        ErrArg,
		ErrTruncate:   ErrTruncate,
		ErrRequest:    ErrRequest,
		ErrIntern:     ErrIntern,
		ErrOther:      ErrOther,
		ErrProcFailed: ErrProcFailed,
		ErrRevoked:    ErrRevoked,
	},
}

// newMint is one rank's registry allocation: a single counter shared by
// every class, from the first slot above the predefined ones.
func newMint() func(abi.Class) abi.Handle {
	next := uint64(slotDynBase)
	return func(abi.Class) abi.Handle {
		next++
		return abi.Handle(next)
	}
}

// Impl is Open MPI's ABI surface as data; Impl.Init(w, rank) is the
// native binding. As with MPICH's, an application bound this way is
// welded to this implementation; the Mukautuva shim is the portable path.
var Impl = &mpicore.Impl{
	Dialect:     Dialect,
	Version:     Version,
	ErrorString: ErrorString,
	Policy:      Policy,
	NewMint:     newMint,
}
