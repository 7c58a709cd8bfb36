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
// Because the native surface IS the standard ABI, the binding layer does
// no translation at all: handles, constants, statuses and codes cross the
// boundary bit-for-bit. Everything behind that surface — progress engine,
// matching, communicators, collectives — comes from internal/mpicore;
// what this package adds is a few hundred lines of handle bookkeeping and
// an algorithm policy. That is the paper's economic argument made
// executable: once the runtime is common and the ABI is standardized, a
// new interoperable implementation is cheap.
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
	"fmt"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mpicore"
	"repro/internal/ops"
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

var stdConsts = mpicore.Consts{
	AnySource: abi.AnySource,
	AnyTag:    abi.AnyTag,
	ProcNull:  abi.ProcNull,
	TagUB:     abi.TagUB,
	Undefined: abi.Undefined,
}

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

// Shorthand for the runtime types the binding passes around.
type (
	coreStatus  = mpicore.Status
	coreType    = mpicore.Type
	coreComm    = mpicore.Comm
	coreGroup   = mpicore.Group
	coreOp      = mpicore.Op
	coreRequest = mpicore.Request
)

// Proc is one rank's stdabi library instance: the shared runtime plus the
// standard handle table. Handle payloads below abi.PredefinedLimit are
// the reserved compile-time constants; minted payloads start at the
// limit.
type Proc struct {
	rt *mpicore.Proc

	comms   map[abi.Handle]*mpicore.Comm
	groups  map[abi.Handle]*mpicore.Group
	dtypes  map[abi.Handle]*mpicore.Type
	userOps map[abi.Handle]*mpicore.Op
	reqs    map[abi.Handle]*mpicore.Request

	next uint64 // dynamic payloads, shared across classes
}

// Init attaches a fresh stdabi instance to the given world endpoint.
func Init(w *fabric.World, rank int) *Proc {
	p := &Proc{
		rt:      mpicore.NewProc(w, rank, stdConsts, stdCodes, Policy()),
		comms:   make(map[abi.Handle]*mpicore.Comm),
		groups:  make(map[abi.Handle]*mpicore.Group),
		dtypes:  make(map[abi.Handle]*mpicore.Type),
		userOps: make(map[abi.Handle]*mpicore.Op),
		reqs:    make(map[abi.Handle]*mpicore.Request),
		next:    abi.PredefinedLimit,
	}
	p.comms[abi.CommWorld] = p.rt.CommWorld
	p.comms[abi.CommSelf] = p.rt.CommSelf
	p.groups[abi.GroupEmpty] = &mpicore.Group{MyPos: -1}
	for _, k := range types.Kinds() {
		p.dtypes[abi.TypeHandle(k)] = p.rt.Predef(k)
	}
	for _, op := range ops.Ops() {
		p.userOps[abi.OpHandle(op)] = p.rt.PredefOp(op)
	}
	return p
}

// mint allocates a dynamic handle in class c, above the reserved
// predefined range.
func (p *Proc) mint(c abi.Class) abi.Handle {
	p.next++
	return abi.MakeHandle(c, p.next)
}

// Rank, Size, World, Finalize: the usual library surface.
func (p *Proc) Rank() int               { return p.rt.Rank() }
func (p *Proc) Size() int               { return p.rt.Size() }
func (p *Proc) World() *fabric.World    { return p.rt.World() }
func (p *Proc) Finalize() int           { return p.rt.Finalize() }
func (p *Proc) AbortWorld(code int) int { return p.rt.Abort(code) }

// Handle resolution: unknown and null handles (the null handle of every
// class has payload 0 and is never registered) resolve to nil, and the
// runtime's argument checking answers with the class-appropriate
// standard code.
func (p *Proc) c(h abi.Handle) *coreComm  { return p.comms[h] }
func (p *Proc) t(h abi.Handle) *coreType  { return p.dtypes[h] }
func (p *Proc) g(h abi.Handle) *coreGroup { return p.groups[h] }
func (p *Proc) o(h abi.Handle) *coreOp    { return p.userOps[h] }

// stdStatus converts the runtime's canonical status into the standard
// layout — which is the same layout; the conversion is a field copy, not
// a re-encoding. Error already carries a standard class value.
func stdStatus(cs *mpicore.Status) abi.Status {
	return abi.Status{
		Source: cs.Source, Tag: cs.Tag, Error: cs.Error,
		CountBytes: cs.CountBytes, Cancelled: cs.Cancelled,
	}
}

func (p *Proc) String() string {
	posted, unexpected, pendingSend, awaiting := p.rt.Depths()
	return fmt.Sprintf("stdabi rank %d: posted=%d unexpected=%d pendingSend=%d awaiting=%d reqs=%d",
		p.rt.Rank(), posted, unexpected, pendingSend, awaiting, len(p.reqs))
}
