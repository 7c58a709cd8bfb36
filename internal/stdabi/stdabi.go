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
//     MPI_PROC_NULL = -2, ...);
//   - the status object is the standard abi.Status layout, verbatim;
//   - error codes are the standard error classes themselves —
//     MPI_Error_class is the identity function.
//
// All of that vocabulary is abi.Std, the standard dialect, which this
// package's Impl names; the code table lives there too, since no private
// numbering exists to write down.
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

// ErrorString mirrors MPI_Error_string over the standard class names.
func ErrorString(code int) string { return abi.Std.Codes.ClassOf(code).String() }

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

// Policy is the reference implementation's algorithm personality over
// the shared runtime (exported for the mpicore collective benchmarks).
func Policy() mpicore.Policy {
	return mpicore.Policy{
		EagerMax: eagerMax,
		// 'S': keep stdabi's cid stream distinct from the other two.
		DeriveCID: mpicore.SaltedCIDDeriver('S'),
		Barrier:   (*mpicore.Proc).BarrierDissemination,
		Bcast: func(p *mpicore.Proc, c *mpicore.Comm, packed []byte, root int, tag int32) int {
			if len(packed) <= bcastShortMax {
				return p.BcastBinomial(c, packed, root, tag)
			}
			return p.BcastScatterRing(c, packed, root, tag)
		},
		Reduce: (*mpicore.Proc).ReduceBinomial,
		Allreduce: func(p *mpicore.Proc, c *mpicore.Comm, acc []byte, o *mpicore.Op, k types.Kind, tag int32) int {
			if len(acc) > allreduceShortMax && len(acc)/k.Size() >= c.Size() {
				return p.AllreduceRing(c, acc, o, k, tag)
			}
			return p.AllreduceRecDoubling(c, acc, o, k, tag, 61)
		},
		Gather:  (*mpicore.Proc).GatherBinomial,
		Scatter: (*mpicore.Proc).ScatterBinomial,
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
// predefined range. The Mukautuva shim mints its handles with it too.
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
	Dialect:     abi.Std,
	Version:     Version,
	ErrorString: ErrorString,
	Policy:      Policy,
	NewMint:     newMint,
}
