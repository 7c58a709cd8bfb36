// Package stdabi is the third simulated MPI implementation — and the
// proof that the shared mpicore runtime earns its keep. Where
// internal/mpich and internal/openmpi each reproduce a historical ABI
// (encoded 32-bit integers; live pointers), this implementation natively
// exposes the *standardized* ABI of the MPI ABI working group (Hammond et
// al., PAPERS.md; the mpi_abi.h exemplar in SNIPPETS.md):
//
//   - handles are pointer-width integers whose predefined values are
//     fixed small constants baked into the binary at compile time
//     (MPI_SUM = 0x21-style reserved ranges — here, abi.Handle values
//     with payloads below abi.PredefinedLimit), with runtime-minted
//     handles above the reserved range;
//   - integer constants are the standard values (MPI_ANY_SOURCE = -1,
//     MPI_PROC_NULL = -2, ...), resolved by abi.StdLookup/StdLookupInt;
//   - the status object is the standard abi.Status layout, verbatim;
//   - error codes are the standard error classes themselves —
//     MPI_Error_class is the identity function.
//
// Because the native surface IS the standard ABI, its native binding —
// mpicore's one Binding, the same body MPICH and Open MPI get
// (Impl.Init) — hands out standard handles, constants, statuses and codes
// bit-for-bit. Everything behind that surface — progress engine,
// matching, communicators, collectives, the binding itself — comes from
// internal/mpicore; what this package adds is its vocabulary (the
// standard one), a minting rule and an algorithm policy. That is the
// paper's economic argument made executable: once the runtime is common
// and the ABI is standardized, a new interoperable implementation is
// cheap.
//
// In the scenario matrix this package is the third implementation axis:
// applications bind to it natively, through Mukautuva, or through Wi4MPI,
// and MANA images taken through the standard ABI restart across
// stdabi <-> {mpich, openmpi} in both directions.
//
// In the README's layer diagram this is the third entry of the
// implementation-packages row — the one whose native surface IS the
// standard ABI of Section 4.1.
package stdabi

import (
	"repro/internal/abi"
	"repro/internal/mpicore"
	"repro/internal/types"
)

// Version identifies the simulated library.
const Version = "MPI-ABI 1.0 reference (simulated)"

// Error codes: the standard error classes, as plain ints. This table IS
// abi.ErrClass — the point of the standard ABI is that no private
// numbering exists to translate.
const (
	Success     = int(abi.ErrSuccess)
	ErrBuffer   = int(abi.ErrBuffer)
	ErrCount    = int(abi.ErrCount)
	ErrType     = int(abi.ErrType)
	ErrTag      = int(abi.ErrTag)
	ErrComm     = int(abi.ErrComm)
	ErrRank     = int(abi.ErrRank)
	ErrRequest  = int(abi.ErrRequest)
	ErrRoot     = int(abi.ErrRoot)
	ErrGroup    = int(abi.ErrGroup)
	ErrOp       = int(abi.ErrOp)
	ErrArg      = int(abi.ErrArg)
	ErrTruncate = int(abi.ErrTruncate)
	ErrIntern   = int(abi.ErrIntern)
	ErrOther    = int(abi.ErrOther)
	// The ULFM classes: natively the standard values, where MPICH says
	// 71/72 and Open MPI says 54/56 — the standardized encoding of
	// exactly the classes fault-tolerant applications must compare.
	ErrProcFailed = int(abi.ErrProcFailed)
	ErrRevoked    = int(abi.ErrRevoked)
)

// ClassOfCode maps this implementation's error codes to standard classes.
// Natively standard codes make it the identity (out-of-range values
// collapse to ErrOther, as MPI_Error_class does for unknown codes).
func ClassOfCode(code int) abi.ErrClass {
	c := abi.ErrClass(code)
	if c < abi.ErrSuccess || c > abi.ErrRevoked {
		return abi.ErrOther
	}
	return c
}

// CodeOfClass is the reverse direction — for this implementation, the
// identity: the standard class IS the native code. Present so the
// cross-implementation round-trip tests treat all three implementations
// uniformly.
func CodeOfClass(c abi.ErrClass) int {
	if c < abi.ErrSuccess || c > abi.ErrRevoked {
		return ErrOther
	}
	return int(c)
}

// ErrorString mirrors MPI_Error_string over the standard class names.
func ErrorString(code int) string { return ClassOfCode(code).String() }

// Reference algorithm selections: deliberately a third personality —
// MPICH's tree shapes at its own switchover points, with Open MPI's ring
// for very long reductions — so the three implementations stay
// distinguishable in the latency curves.
const (
	eagerMax          = 8 * 1024  // between MPICH's 16 KiB and Open MPI's 4 KiB
	bcastShortMax     = 16 * 1024 // binomial below, scatter+ring above
	allreduceShortMax = 16 * 1024 // recursive doubling below, ring above
	alltoallBruckMax  = 512       // Bruck below, nonblocking overlap above
	allgatherRDMax    = 65536     // recursive doubling (pow2) below, ring above
)

var stdCodes = mpicore.Codes{
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
}

// Policy is the reference implementation's algorithm personality over
// the shared runtime (exported for the mpicore collective benchmarks).
func Policy() mpicore.Policy {
	return mpicore.Policy{
		EagerMax: eagerMax,
		// 'S': keep stdabi's cid stream distinct from the other two.
		DeriveCID: mpicore.SaltedCIDDeriver('S'),
		Barrier: func(p *mpicore.Proc, c *mpicore.Comm, tag int32) int {
			return p.BarrierDissemination(c, tag)
		},
		Bcast: func(p *mpicore.Proc, c *mpicore.Comm, packed []byte, root int, tag int32) int {
			if len(packed) <= bcastShortMax {
				return p.BcastBinomial(c, packed, root, tag)
			}
			return p.BcastScatterRing(c, packed, root, tag)
		},
		Reduce: func(p *mpicore.Proc, c *mpicore.Comm, acc []byte, o *mpicore.Op, k types.Kind, root int, tag int32) int {
			return p.ReduceBinomial(c, acc, o, k, root, tag)
		},
		Allreduce: func(p *mpicore.Proc, c *mpicore.Comm, acc []byte, o *mpicore.Op, k types.Kind, tag int32) int {
			if len(acc) > allreduceShortMax && len(acc)/k.Size() >= c.Size() {
				return p.AllreduceRing(c, acc, o, k, tag)
			}
			return p.AllreduceRecDoubling(c, acc, o, k, tag, 61)
		},
		Gather: func(p *mpicore.Proc, c *mpicore.Comm, own, region []byte, blockSz, root int, tag int32) int {
			return p.GatherBinomial(c, own, region, blockSz, root, tag)
		},
		Scatter: func(p *mpicore.Proc, c *mpicore.Comm, region, own []byte, blockSz, root int, tag int32) int {
			return p.ScatterBinomial(c, region, own, blockSz, root, tag)
		},
		Allgather: func(p *mpicore.Proc, c *mpicore.Comm, region []byte, blockSz int, tag int32) int {
			n := c.Size()
			if n&(n-1) == 0 && n*blockSz <= allgatherRDMax {
				return p.AllgatherRecDoubling(c, region, blockSz, tag)
			}
			return p.AllgatherRing(c, region, blockSz, tag)
		},
		Alltoall: func(p *mpicore.Proc, c *mpicore.Comm, out, in []byte, blockSz int, tag int32) int {
			if blockSz <= alltoallBruckMax {
				return p.AlltoallBruck(c, out, in, blockSz, tag)
			}
			return p.AlltoallOverlap(c, out, in, blockSz, tag)
		},
	}
}

// newMint is one rank's handle allocation: standard-encoded handles, one
// serial shared by every class, with payloads above the reserved
// predefined range.
func newMint() func(abi.Class) abi.Handle {
	next := uint64(abi.PredefinedLimit)
	return func(c abi.Class) abi.Handle {
		next++
		return abi.MakeHandle(c, next)
	}
}

// Impl is the standard-ABI implementation as data; Impl.Init(w, rank) is
// its native binding, whose handles, constants and codes are the
// standard ones with no translation in between.
var Impl = &mpicore.Impl{
	Name:        "stdabi",
	Version:     Version,
	Codes:       stdCodes,
	ClassOfCode: ClassOfCode,
	ErrorString: ErrorString,
	Policy:      Policy,
	Lookup:      abi.StdLookup,
	LookupInt:   abi.StdLookupInt,
	NewMint:     newMint,
}
