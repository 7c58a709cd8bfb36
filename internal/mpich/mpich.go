package mpich

import (
	"repro/internal/mpicore"
	"repro/internal/types"
)

// Version identifies the simulated library, mirroring the paper's testbed.
const Version = "MPICH 3.3.2 (simulated)"

// eagerMax is MPICH's eager/rendezvous switchover in bytes.
const eagerMax = 16 * 1024

// MPICH-style collective algorithm selection thresholds (bytes). These —
// together with the handle encoding and the error-code table — are the
// whole of what this package adds over the shared mpicore runtime: the
// ABI surface and the algorithm personality.
const (
	bcastShortMax       = 12288 // binomial below, scatter+ring-allgather above
	allreduceShortMax   = 2048  // recursive doubling below, Rabenseifner above
	alltoallBruckMax    = 256   // Bruck below, nonblocking overlap between
	alltoallPairwiseMin = 32768 // pairwise exchange above (long messages)
	allgatherRDMax      = 32768 // recursive doubling (pow2) below, ring above
)

// mpichCodes is MPICH's error-code table (see errors.go).
var mpichCodes = mpicore.Codes{
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
	ErrPending:    ErrPending,
	ErrIntern:     ErrIntern,
	ErrOther:      ErrOther,
	ErrProcFailed: ErrProcFailed,
	ErrRevoked:    ErrRevoked,
}

// Policy is MPICH's algorithm personality over the shared runtime: the
// classic selections (binomial broadcast with a scatter+ring switch,
// recursive-doubling and Rabenseifner allreduce, Bruck/overlap/pairwise
// alltoall, dissemination barrier) at MPICH's thresholds.
func Policy() mpicore.Policy {
	return mpicore.Policy{
		EagerMax:  eagerMax,
		DeriveCID: mpicore.FNV1aCIDDeriver(),
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
			n := c.Size()
			elems := len(acc) / k.Size()
			isPow2 := n&(n-1) == 0
			if len(acc) > allreduceShortMax && isPow2 && elems >= n {
				return p.AllreduceRabenseifner(c, acc, o, k, tag)
			}
			return p.AllreduceRecDoubling(c, acc, o, k, tag, 62)
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
			switch {
			case blockSz <= alltoallBruckMax:
				return p.AlltoallBruck(c, out, in, blockSz, tag)
			case blockSz < alltoallPairwiseMin:
				return p.AlltoallOverlap(c, out, in, blockSz, tag)
			default:
				return p.AlltoallPairwise(c, out, in, blockSz, tag)
			}
		},
	}
}

// Impl is MPICH's ABI surface as data; Impl.Init(w, rank) is the native
// binding, the analog of compiling the application against MPICH's own
// mpi.h — the baseline configuration in the paper's figures. An
// application bound this way cannot be moved to another MPI
// implementation (that is the paper's point); the Mukautuva shim is the
// portable path.
var Impl = &mpicore.Impl{
	Name:        "mpich",
	Version:     Version,
	Codes:       mpichCodes,
	ClassOfCode: ClassOfCode,
	ErrorString: ErrorString,
	Policy:      Policy,
	Lookup:      Lookup,
	LookupInt:   LookupInt,
	NewMint:     newMint,
}
