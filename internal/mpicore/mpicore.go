// Package mpicore is the representation-agnostic MPI runtime shared by
// every simulated implementation in this repository. The paper's central
// observation — and the ABI working group's (Hammond et al., PAPERS.md) —
// is that MPI implementations differ at the ABI surface (handle
// representations, constant values, error-code numbering, status layout)
// while the runtime semantics underneath are common: request lifecycle and
// progress, point-to-point matching, communicator context ids, and the
// collective algorithms. This package is that common runtime made literal.
//
// An implementation package (internal/mpich, internal/openmpi,
// internal/stdabi) supplies one Impl (bind.go): its ABI surface as data —
//
//   - its abi.Dialect: the constant and handle vocabulary (the runtime's
//     Consts derive from it: wildcards, PROC_NULL, TAG_UB, MPI_UNDEFINED)
//     and the Codes table of its native error-code numbering (MPICH's
//     MPI_ERR_ROOT is 7, Open MPI's is 8, the standard ABI's is
//     abi.ErrRoot);
//   - its error strings and handle-minting rule;
//   - a Policy: its eager/rendezvous switchover, context-id derivation
//     stream, and collective algorithm selections (MPICH's
//     binomial/Rabenseifner/Bruck cutoffs vs Open MPI's tuned
//     binary/chain/ring cutoffs) built from the algorithm set this
//     package exports.
//
// Everything else — the object model (Comm, Group, Type, Op, Request),
// the progress engine, the protocols, the algorithms, and the native
// abi.FuncTable itself (Binding) — is shared. What remains in each
// implementation package is exactly what the paper calls the ABI:
// handle values, constant values, error codes. That an entire third
// implementation (internal/stdabi) fits in a couple of hundred lines of
// such data is the repository's executable form of the paper's "a
// standard ABI makes new interoperable implementations cheap" claim.
//
// In the README's layer diagram mpicore is the shared-runtime row —
// everything between the implementation packages and the fabric,
// including the replica layer behind Recovery="replicate"
// (docs/recovery.md): send duplication, receive dedup by replication
// sequence, and in-place shadow promotion, all beneath the communicator
// abstraction so no layer above can tell a replicated world apart.
package mpicore

import (
	"hash/fnv"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/ops"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/ulfm"
)

// Consts is an implementation's native sentinels (abi.ConstsOf of its
// dialect). The runtime performs wildcard matching and argument
// validation directly in the implementation's own value space, so
// arguments cross the implementation boundary untranslated — exactly as
// they would inside a real MPI library.
type Consts = abi.Consts

// Codes is an implementation's native error-code table (its dialect's).
// The runtime returns these values directly (and embeds them in
// Status.Error), so an implementation's public API reports its own
// numbering without a translation pass — the numbering differences are
// part of each ABI and are preserved bit-for-bit.
type Codes = abi.Codes

// Status is the runtime's receive-status record, the standard ABI's one
// layout: Source is a communicator rank and Error carries the
// implementation's native code, so the binding hands it up as it is.
type Status = abi.Status

// Comm is a communicator: a context id, the comm-rank -> world-rank
// table, and the caller's position. CollSeq reserves per-collective tag
// blocks; ChldSeq numbers derived communicators for deterministic
// context-id agreement. Build one with newComm; Ranks and its index are
// read-only after construction (communicators share them — the world's
// table comes from fabric.World.RankTable, a dup's from its parent).
type Comm struct {
	CID   uint32
	Ranks []int
	MyPos int
	// inv is the world-rank -> comm-rank index behind PosOf; nil on an
	// identity-mapped communicator (Ranks[i] == i), which needs none.
	inv     map[int]int
	CollSeq uint32
	ChldSeq uint32
	// UlfmSeq numbers the ULFM collectives (Shrink, Agree) on this
	// communicator. It is deliberately separate from CollSeq: after a
	// failure, survivors may have attempted different numbers of regular
	// collectives (one rank's broadcast completed, its neighbor's
	// errored), so CollSeq diverges — but every survivor calls the ULFM
	// recovery collectives in the same order, so UlfmSeq is the counter
	// they still agree on, and the fault-tolerant tag blocks derive from
	// it (see nextFtTag).
	UlfmSeq uint32
}

// Size returns the communicator's size.
func (c *Comm) Size() int { return len(c.Ranks) }

// newComm builds a communicator over ranks, which it keeps (not copies)
// and never writes.
func newComm(cid uint32, ranks []int, myPos int) *Comm {
	c := &Comm{CID: cid, Ranks: ranks, MyPos: myPos}
	if !isIdentity(ranks) {
		// Descending, so that the lowest position wins should a world
		// rank ever appear twice.
		c.inv = make(map[int]int, len(ranks))
		for i := len(ranks) - 1; i >= 0; i-- {
			c.inv[ranks[i]] = i
		}
	}
	return c
}

func isIdentity(ranks []int) bool {
	for i, w := range ranks {
		if w != i {
			return false
		}
	}
	return true
}

// PosOf translates a world rank into a communicator rank, or -1. It runs
// on every delivered payload (the receive status' source), so it is a
// bounds check on an identity-mapped communicator and one map lookup on
// any other.
func (c *Comm) PosOf(world int) int {
	if c.inv == nil {
		if world >= 0 && world < len(c.Ranks) {
			return world
		}
		return -1
	}
	if pos, ok := c.inv[world]; ok {
		return pos
	}
	return -1
}

// Group is a process group: group rank -> world rank, plus the caller's
// position (-1 when not a member).
type Group struct {
	Ranks []int
	MyPos int
}

// Type is a datatype object wrapping the shared type engine. Prim is the
// primitive kind for predefined types (KindInvalid for derived ones).
type Type struct {
	T    *types.Type
	Prim types.Kind
}

// Op is a reduction operator object. User names a registered user
// operator (see ops.RegisterUser); empty means the predefined Op.
type Op struct {
	Op      ops.Op
	User    string
	Commute bool
}

type reqKind uint8

const (
	reqRecv reqKind = iota
	reqSend
)

// Request is an in-flight operation. The binding maps a request handle
// to it; its internals belong to the runtime.
type Request struct {
	kind reqKind
	done bool
	code int
	// ft marks fault-tolerant (ULFM shrink/agree) traffic, which the
	// doom rule fails only when its peer is dead, never on a revocation:
	// ULFM's recovery collectives must keep working on a revoked
	// communicator.
	ft bool

	// Receive bookkeeping.
	comm     *Comm
	buf      []byte
	count    int
	dt       *Type
	srcWorld int // matched source world rank, or the AnySource sentinel
	tag      int
	cid      uint32
	raw      bool   // collective-internal: deliver the packed payload
	rawOut   []byte // raw delivery target
	status   Status

	// Rendezvous send bookkeeping.
	payload []byte
	dest    int
	seq     uint64
	// owned marks a payload the sender handed over for good (a freshly
	// packed p2p buffer): the fabric may skip its defensive copy.
	// Collective accumulators, which the algorithms keep mutating after
	// the send, are never owned.
	owned bool
}

// Done reports request completion (used by implementation Test paths and
// diagnostics; completion is normally consumed through Wait/Test).
func (r *Request) Done() bool { return r.done }

type seqKey struct {
	peer int
	seq  uint64
}

// collCIDBit marks collective-internal traffic so it can never match
// application point-to-point receives on the same communicator. All
// implementations share the bit: it lives on the wire, below the ABI.
const collCIDBit uint32 = 1 << 31

// Proc is one rank's runtime instance — the common lower half of every
// simulated MPI library.
type Proc struct {
	ep    *fabric.Endpoint
	world *fabric.World
	rank  int
	size  int

	K   Consts
	E   Codes
	pol Policy

	// Predefined communicators, shared with the implementation layer.
	CommWorld *Comm
	CommSelf  *Comm

	posted     []*Request
	unexpected []*fabric.Envelope
	// pendingSend and awaitingData are made by their first rendezvous:
	// a run of eager traffic never needs them.
	pendingSend  map[uint64]*Request
	awaitingData map[seqKey]*Request
	nextRdvSeq   uint64

	// batch is Progress's reusable drain buffer (one mailbox drain per
	// burst instead of one pop per message); batchPos is the next unserved
	// envelope in it. Dispatch never re-enters Progress, so a single
	// buffer per Proc suffices.
	batch    []*fabric.Envelope
	batchPos int
	// freeReqs recycles Request objects: the runtime's internal ones,
	// and the application's once the binding frees their handle. The
	// Proc is driven by its rank's fiber alone, so the freelist needs no
	// lock.
	freeReqs []*Request
	// reqTab is collReqs' reusable request table.
	reqTab []*Request

	// ft is the rank's ULFM state: known-failed ranks, revoked context
	// ids, per-communicator failure acknowledgements (see ulfm.go).
	ft ulfm.Tracker

	// repl is the active-replication state on a replicated world, nil
	// otherwise. When set, rank/size and every communicator speak
	// logical ranks; see replica.go.
	repl *replState

	// tr is the rank's trace track (nil on an untraced world); cached
	// from the endpoint so every emission site is a field load plus a
	// nil check.
	tr *trace.Track
}

// NewProc attaches a runtime instance to one rank of a world — the common
// half of every implementation's MPI_Init. The predefined communicators
// use the shared context ids 1 (world) and 2 (self). On a replicated
// world rank is the PHYSICAL endpoint rank; the instance rewires itself
// to speak logical ranks everywhere above the wire (see replica.go).
func NewProc(w *fabric.World, rank int, k Consts, e Codes, pol Policy) *Proc {
	ep := w.Endpoint(rank)
	p := &Proc{
		ep:    ep,
		world: w,
		rank:  rank,
		size:  w.Size(),
		K:     k,
		E:     e,
		pol:   pol,
		tr:    ep.Trace(),
	}
	if w.Replicated() {
		p.initReplication(w)
	}
	p.CommWorld = newComm(1, w.RankTable(), p.rank)
	p.CommSelf = newComm(2, []int{p.rank}, 0)
	return p
}

// predefTypes and predefOps are the predefined datatype and operator
// objects, indexed by kind and by operator. They are built once per
// process and shared by every rank of every implementation: nothing
// writes a Type or an Op once it is built, and a predefined one is
// never freed.
var (
	predefTypes = func() []Type {
		t := make([]Type, len(types.Kinds())+1)
		for _, k := range types.Kinds() {
			t[k] = Type{T: types.Predefined(k), Prim: k}
		}
		return t
	}()
	predefOps = func() []Op {
		o := make([]Op, len(ops.Ops())+1)
		for _, op := range ops.Ops() {
			o[op] = Op{Op: op, Commute: op.Commutative()}
		}
		return o
	}()
)

// Predef returns the predefined datatype object for a primitive kind.
func (p *Proc) Predef(k types.Kind) *Type {
	if !k.Valid() {
		return nil
	}
	return &predefTypes[k]
}

// PredefOp returns the predefined operator object.
//
//mpivet:allow deadexport -- bench/probes.go's collective probe reduces with MPI_SUM's object from it
func (p *Proc) PredefOp(op ops.Op) *Op {
	if !op.Valid() {
		return nil
	}
	return &predefOps[op]
}

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Abort mirrors MPI_Abort: it tears the whole world down.
func (p *Proc) Abort(code int) int {
	p.ep.CloseWorld()
	return p.E.ErrOther
}

// getReq returns a zeroed request from the freelist.
func (p *Proc) getReq() *Request {
	if n := len(p.freeReqs); n > 0 {
		r := p.freeReqs[n-1]
		p.freeReqs[n-1] = nil
		p.freeReqs = p.freeReqs[:n-1]
		return r
	}
	return &Request{}
}

// putReq recycles a COMPLETED request whose result has been fully
// consumed: an internal one when its waiter is done with it, an
// application one (an Isend/Irecv result) when the binding frees its
// handle, so no handle can reach it again. A non-done request is left
// alone — it may still sit in a match queue, and completion is the
// proof it has been dequeued everywhere (the sweep removes before
// failing).
func (p *Proc) putReq(r *Request) {
	if r == nil || !r.done {
		return
	}
	*r = Request{}
	p.freeReqs = append(p.freeReqs, r)
}

// collReqs returns a cleared n-slot request table for an algorithm that
// keeps many receives or sends in flight. It is reused by the next call:
// a Proc runs one collective at a time.
func (p *Proc) collReqs(n int) []*Request {
	if cap(p.reqTab) < n {
		p.reqTab = make([]*Request, n)
	}
	t := p.reqTab[:n]
	clear(t)
	return t
}

// Depths reports the progress engine's queue depths: posted receives,
// unexpected envelopes, pending rendezvous sends, matched rendezvous
// receives awaiting data. Implementations use it for diagnostics.
func (p *Proc) Depths() (posted, unexpected, pendingSend, awaiting int) {
	return len(p.posted), len(p.unexpected), len(p.pendingSend), len(p.awaitingData)
}

// FNV1aCIDDeriver returns MPICH's flavor of deterministic child
// context-id derivation: FNV-1a over (parent, ordinal). All members of a
// communicator observe the same pair, so all compute the same cid with no
// extra communication; real implementations run a collective agreement
// protocol, and the hash keeps the simulation cheap while preserving the
// invariant that distinct communicators get distinct ids.
func FNV1aCIDDeriver() func(parent, ordinal uint32) uint32 {
	return func(parent, ordinal uint32) uint32 {
		h := fnv.New32a()
		var b [8]byte
		putCIDWords(b[:], parent, ordinal)
		h.Write(b[:])
		return clampCID(h.Sum32())
	}
}

// SaltedCIDDeriver returns an FNV-1 derivation with a leading salt byte,
// keeping each implementation's cid stream distinct from the others'.
func SaltedCIDDeriver(salt byte) func(parent, ordinal uint32) uint32 {
	return func(parent, ordinal uint32) uint32 {
		h := fnv.New32()
		b := make([]byte, 9)
		b[0] = salt
		putCIDWords(b[1:], parent, ordinal)
		h.Write(b)
		return clampCID(h.Sum32())
	}
}

func putCIDWords(b []byte, parent, ordinal uint32) {
	b[0], b[1], b[2], b[3] = byte(parent), byte(parent>>8), byte(parent>>16), byte(parent>>24)
	b[4], b[5], b[6], b[7] = byte(ordinal), byte(ordinal>>8), byte(ordinal>>16), byte(ordinal>>24)
}

// clampCID keeps derived cids off the collective bit and clear of the
// predefined ids 1 and 2.
func clampCID(cid uint32) uint32 {
	cid &^= collCIDBit
	if cid <= 2 {
		cid += 3
	}
	return cid
}

// collBegin opens a named collective-algorithm slice on the rank's trace
// track. The round executor opens one per call (coll, named after the
// algorithm method: BcastBinomial, AllreduceRabenseifner, …) and closes it
// in end, so the trace records which algorithm the policy actually
// selected — the per-round spans nest inside it.
func (p *Proc) collBegin(name string) {
	if tr := p.tr; tr != nil {
		tr.Begin(trace.CatColl, name, p.ep.Clock().Now())
	}
}

// collEnd closes the slice collBegin opened; the executor's end calls it
// on every return, failed ones included.
func (p *Proc) collEnd(name string) {
	if tr := p.tr; tr != nil {
		tr.End(trace.CatColl, name, p.ep.Clock().Now())
	}
}
