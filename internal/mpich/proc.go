package mpich

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/types"
)

// Version identifies the simulated library, mirroring the paper's testbed.
const Version = "MPICH 3.3.2 (simulated)"

// eagerMax is MPICH's eager/rendezvous switchover in bytes.
const eagerMax = 16 * 1024

// MPICH-style collective algorithm selection thresholds (bytes). These —
// together with the handle encoding, the error-code table and the status
// layout — are the whole of what this package adds over the shared
// mpicore runtime: the ABI surface and the algorithm personality.
const (
	bcastShortMax       = 12288 // binomial below, scatter+ring-allgather above
	allreduceShortMax   = 2048  // recursive doubling below, Rabenseifner above
	alltoallBruckMax    = 256   // Bruck below, nonblocking overlap between
	alltoallPairwiseMin = 32768 // pairwise exchange above (long messages)
	allgatherRDMax      = 32768 // recursive doubling (pow2) below, ring above
)

// consts is MPICH's integer-constant vocabulary (see handles.go).
var mpichConsts = mpicore.Consts{
	AnySource: AnySource,
	AnyTag:    AnyTag,
	ProcNull:  ProcNull,
	TagUB:     TagUB,
	Undefined: Undefined,
}

// codes is MPICH's error-code table (see errors.go).
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

// Proc is one rank's MPICH library instance (the paper's "lower half"):
// the shared mpicore runtime plus MPICH's handle tables. Every API method
// decodes MPICH's 32-bit handles into runtime objects, delegates, and
// encodes results back — the same translation a natively compiled binary
// gets from mpi.h macros.
type Proc struct {
	rt *mpicore.Proc

	comms   map[Handle]*mpicore.Comm
	groups  map[Handle]*mpicore.Group
	dtypes  map[Handle]*mpicore.Type
	userOps map[Handle]*mpicore.Op
	reqs    map[Handle]*mpicore.Request

	nextComm  int32
	nextGroup int32
	nextType  int32
	nextOp    int32
	nextReq   int32
}

// Init attaches a fresh MPICH instance to the given world endpoint, the
// analog of MPI_Init for one rank.
func Init(w *fabric.World, rank int) *Proc {
	p := &Proc{
		rt:      mpicore.NewProc(w, rank, mpichConsts, mpichCodes, Policy()),
		comms:   make(map[Handle]*mpicore.Comm),
		groups:  make(map[Handle]*mpicore.Group),
		dtypes:  make(map[Handle]*mpicore.Type),
		userOps: make(map[Handle]*mpicore.Op),
		reqs:    make(map[Handle]*mpicore.Request),
	}
	p.comms[CommWorld] = p.rt.CommWorld
	p.comms[CommSelf] = p.rt.CommSelf
	for _, k := range types.Kinds() {
		p.dtypes[TypeHandle(k)] = p.rt.Predef(k)
	}
	for _, op := range ops.Ops() {
		p.userOps[OpHandle(op)] = p.rt.PredefOp(op)
	}
	return p
}

// TypeHandle returns the MPICH handle of a predefined datatype. Real MPICH
// encodes the type's size in bits 8..15 of the handle; we reproduce that.
func TypeHandle(k types.Kind) Handle {
	return classDatatype | Handle(k.Size())<<8 | Handle(k)
}

// KindOfPredefined recovers the primitive kind of a predefined datatype
// handle (used by the wrap adapter).
func KindOfPredefined(h Handle) (types.Kind, bool) {
	if h.class() != classDatatype || h.isNull() || h.payload() >= dynBase {
		return types.KindInvalid, false
	}
	k := types.Kind(h & 0xff)
	return k, k.Valid()
}

// OpHandle returns the MPICH handle of a predefined reduction operator.
// Real MPICH numbers these 0x58000001.. in mpi.h order.
func OpHandle(op ops.Op) Handle { return classOp | Handle(op) }

// OpOfPredefined recovers the predefined operator (wrap adapter use).
func OpOfPredefined(h Handle) (ops.Op, bool) {
	if h.class() != classOp || h.isNull() || h.payload() >= dynBase {
		return ops.OpNull, false
	}
	op := ops.Op(h & 0xff)
	return op, op.Valid()
}

// Rank returns this process's world rank. Size returns the world size.
func (p *Proc) Rank() int { return p.rt.Rank() }

// Size returns the number of ranks in the world.
func (p *Proc) Size() int { return p.rt.Size() }

// World exposes the fabric world (used by the launcher and tests).
func (p *Proc) World() *fabric.World { return p.rt.World() }

// Finalize releases the instance. Outstanding requests are abandoned.
func (p *Proc) Finalize() int { return p.rt.Finalize() }

// Finalized reports whether Finalize has run.
func (p *Proc) Finalized() bool { return p.rt.Finalized() }

// lookupComm validates a communicator handle.
func (p *Proc) lookupComm(h Handle) (*mpicore.Comm, int) {
	c, ok := p.comms[h]
	if !ok || h.isNull() {
		return nil, ErrComm
	}
	return c, Success
}

// lookupType validates a datatype handle (commit checks happen in the
// runtime).
func (p *Proc) lookupType(h Handle) (*mpicore.Type, int) {
	t, ok := p.dtypes[h]
	if !ok || h.isNull() {
		return nil, ErrType
	}
	return t, Success
}

// lookupGroup validates a group handle; GroupEmpty resolves to a fresh
// empty group object, as in MPICH.
func (p *Proc) lookupGroup(h Handle) (*mpicore.Group, int) {
	if h == GroupEmpty {
		return &mpicore.Group{MyPos: -1}, Success
	}
	g, ok := p.groups[h]
	if !ok || h.isNull() {
		return nil, ErrGroup
	}
	return g, Success
}

// lookupOp validates an operator handle.
func (p *Proc) lookupOp(h Handle) (*mpicore.Op, int) {
	o, ok := p.userOps[h]
	if !ok || h.isNull() {
		return nil, ErrOp
	}
	return o, Success
}

// newCommHandle allocates a dynamic communicator handle.
func (p *Proc) newCommHandle() Handle {
	p.nextComm++
	return classComm | Handle(dynBase+p.nextComm)
}

func (p *Proc) newGroupHandle() Handle {
	p.nextGroup++
	return classGroup | Handle(dynBase+p.nextGroup)
}

func (p *Proc) newTypeHandle() Handle {
	p.nextType++
	return classDatatype | Handle(dynBase+p.nextType)
}

func (p *Proc) newOpHandle() Handle {
	p.nextOp++
	return classOp | Handle(dynBase+p.nextOp)
}

func (p *Proc) newReqHandle() Handle {
	p.nextReq++
	return classRequest | Handle(dynBase+p.nextReq)
}

// Abort mirrors MPI_Abort: it tears the whole world down.
func (p *Proc) Abort(code int) int { return p.rt.Abort(code) }

// nativeStatus converts the runtime's canonical status into MPICH's
// split-count-word layout.
func nativeStatus(cs *mpicore.Status) Status {
	var s Status
	s.Source = cs.Source
	s.Tag = cs.Tag
	s.Error = cs.Error
	s.setCount(cs.CountBytes)
	s.SetCancelled(cs.Cancelled)
	return s
}

// debugString summarizes internal state for tests and fault diagnosis.
func (p *Proc) debugString() string {
	posted, unexpected, pendingSend, awaiting := p.rt.Depths()
	return fmt.Sprintf("mpich rank %d: posted=%d unexpected=%d pendingSend=%d awaiting=%d reqs=%d",
		p.rt.Rank(), posted, unexpected, pendingSend, awaiting, len(p.reqs))
}
