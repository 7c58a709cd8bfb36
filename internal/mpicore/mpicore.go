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
//   - its constant and handle vocabulary (Lookup, LookupInt; the
//     runtime's Consts derive from it: wildcards, PROC_NULL, TAG_UB,
//     MPI_UNDEFINED) and its handle-minting rule;
//   - a Codes table: its native error-code numbering (MPICH's
//     MPI_ERR_ROOT is 7, Open MPI's is 8, the standard ABI's is
//     abi.ErrRoot), with its error strings;
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

// Consts is an implementation's native integer-constant vocabulary. The
// runtime performs wildcard matching and argument validation directly in
// the implementation's own value space, so arguments cross the
// implementation boundary untranslated — exactly as they would inside a
// real MPI library.
type Consts struct {
	AnySource int
	AnyTag    int
	ProcNull  int
	TagUB     int
	Undefined int
}

// Codes is an implementation's native error-code table. The runtime
// returns these values directly (and embeds them in Status.Error), so an
// implementation's public API reports its own numbering without a
// translation pass — the numbering differences are part of each ABI and
// are preserved bit-for-bit.
type Codes struct {
	Success     int
	ErrBuffer   int
	ErrCount    int
	ErrType     int
	ErrTag      int
	ErrComm     int
	ErrRank     int
	ErrRoot     int
	ErrGroup    int
	ErrOp       int
	ErrArg      int
	ErrTruncate int
	ErrRequest  int
	// ErrPending stays zero where the implementation's table has no
	// MPI_ERR_PENDING slot (Open MPI's here).
	ErrPending int
	ErrIntern  int
	ErrOther   int
	// ErrProcFailed and ErrRevoked are the ULFM (MPIX_*) error classes.
	// Real implementations number these beyond their classic tables —
	// and number them differently from each other, which is exactly the
	// cross-ABI divergence the translation layers must bridge.
	ErrProcFailed int
	ErrRevoked    int
}

type classCode struct {
	class abi.ErrClass
	code  int
}

// byClass pairs each field with its standard error class, Success first:
// the one place the two enumerations meet, from which both directions of
// every implementation's MPI_Error_class mapping derive.
func (e Codes) byClass() [18]classCode {
	return [...]classCode{
		{abi.ErrSuccess, e.Success},
		{abi.ErrBuffer, e.ErrBuffer},
		{abi.ErrCount, e.ErrCount},
		{abi.ErrType, e.ErrType},
		{abi.ErrTag, e.ErrTag},
		{abi.ErrComm, e.ErrComm},
		{abi.ErrRank, e.ErrRank},
		{abi.ErrRoot, e.ErrRoot},
		{abi.ErrGroup, e.ErrGroup},
		{abi.ErrOp, e.ErrOp},
		{abi.ErrArg, e.ErrArg},
		{abi.ErrTruncate, e.ErrTruncate},
		{abi.ErrRequest, e.ErrRequest},
		{abi.ErrPending, e.ErrPending},
		{abi.ErrIntern, e.ErrIntern},
		{abi.ErrOther, e.ErrOther},
		{abi.ErrProcFailed, e.ErrProcFailed},
		{abi.ErrRevoked, e.ErrRevoked},
	}
}

// ClassOf maps a native code to its standard class (MPI_Error_class).
// Success is matched first, so a code an unset field shares with it still
// reads as success; a code the table does not hold is ErrOther.
func (e Codes) ClassOf(code int) abi.ErrClass {
	for _, p := range e.byClass() {
		if p.code == code {
			return p.class
		}
	}
	return abi.ErrOther
}

// CodeOf is the reverse direction: the native code a standard class
// surfaces as. A class the table cannot express — no field for it, or a
// field left unset — collapses to the native ErrOther, which is what a
// real error handler sees.
func (e Codes) CodeOf(class abi.ErrClass) int {
	for _, p := range e.byClass() {
		if p.class == class && (p.code != e.Success || class == abi.ErrSuccess) {
			return p.code
		}
	}
	return e.ErrOther
}

// Status is the runtime's canonical receive-status record. Source is a
// communicator rank, Error carries the implementation's native code. The
// binding copies it into the standard abi.Status field for field.
type Status struct {
	Source     int32
	Tag        int32
	Error      int32
	CountBytes uint64
	Cancelled  bool
}

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
	// ft marks fault-tolerant (ULFM shrink/agree) traffic: exempt from
	// revocation sweeps — ULFM's recovery collectives must keep working
	// on a revoked communicator — while still completing with the
	// proc-failed code when the peer is dead.
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

	// Predefined objects, shared with the implementation layer.
	CommWorld *Comm
	CommSelf  *Comm

	predefTypes map[types.Kind]*Type
	predefOps   map[ops.Op]*Op

	cidIndex map[uint32]*Comm

	posted       []*Request
	unexpected   []*fabric.Envelope
	pendingSend  map[uint64]*Request
	awaitingData map[seqKey]*Request
	nextRdvSeq   uint64

	// batch is Progress's reusable drain buffer (one mailbox lock hop
	// per burst instead of per message); batchPos is the next unserved
	// envelope in it. Dispatch never re-enters Progress, so a single
	// buffer per Proc suffices.
	batch    []*fabric.Envelope
	batchPos int
	// freeReqs recycles internal Request objects. The Proc is driven by
	// exactly one goroutine/fiber, so the freelist needs no lock.
	freeReqs []*Request
	// reqTab is collReqs' reusable request table.
	reqTab []*Request

	// ft is the rank's ULFM state: known-failed ranks, revoked context
	// ids, per-communicator failure acknowledgements (see ulfm.go).
	ft *ulfm.Tracker

	// repl is the active-replication state on a replicated world, nil
	// otherwise. When set, rank/size and every communicator speak
	// logical ranks; see replica.go.
	repl *replState

	// tr is the rank's trace track (nil on an untraced world); cached
	// from the endpoint so every emission site is a field load plus a
	// nil check.
	tr *trace.Track

	finalized bool
}

// NewProc attaches a runtime instance to one rank of a world — the common
// half of every implementation's MPI_Init. The predefined communicators
// use the shared context ids 1 (world) and 2 (self). On a replicated
// world rank is the PHYSICAL endpoint rank; the instance rewires itself
// to speak logical ranks everywhere above the wire (see replica.go).
func NewProc(w *fabric.World, rank int, k Consts, e Codes, pol Policy) *Proc {
	p := &Proc{
		ep:           w.Endpoint(rank),
		world:        w,
		rank:         rank,
		size:         w.Size(),
		K:            k,
		E:            e,
		pol:          pol,
		predefTypes:  make(map[types.Kind]*Type),
		predefOps:    make(map[ops.Op]*Op),
		cidIndex:     make(map[uint32]*Comm),
		pendingSend:  make(map[uint64]*Request),
		awaitingData: make(map[seqKey]*Request),
		ft:           ulfm.NewTracker(),
		tr:           w.Endpoint(rank).Trace(),
	}
	if w.Replicated() {
		p.initReplication(w)
	}
	p.CommWorld = newComm(1, w.RankTable(), p.rank)
	p.CommSelf = newComm(2, []int{p.rank}, 0)
	p.cidIndex[1] = p.CommWorld
	p.cidIndex[2] = p.CommSelf
	for _, kind := range types.Kinds() {
		p.predefTypes[kind] = &Type{T: types.Predefined(kind), Prim: kind}
	}
	for _, op := range ops.Ops() {
		p.predefOps[op] = &Op{Op: op, Commute: op.Commutative()}
	}
	return p
}

// Predef returns the predefined datatype object for a primitive kind.
func (p *Proc) Predef(k types.Kind) *Type { return p.predefTypes[k] }

// PredefOp returns the predefined operator object.
func (p *Proc) PredefOp(op ops.Op) *Op { return p.predefOps[op] }

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the world.
func (p *Proc) Size() int { return p.size }

// World exposes the fabric world (launchers and tests).
func (p *Proc) World() *fabric.World { return p.world }

// Finalize releases the instance. Outstanding requests are abandoned.
func (p *Proc) Finalize() int {
	p.finalized = true
	return p.E.Success
}

// Finalized reports whether Finalize has run.
func (p *Proc) Finalized() bool { return p.finalized }

// Abort mirrors MPI_Abort: it tears the whole world down.
func (p *Proc) Abort(code int) int {
	p.world.Close()
	return p.E.ErrOther
}

// install registers a runtime-built communicator in the context-id
// index.
func (p *Proc) install(c *Comm) { p.cidIndex[c.CID] = c }

// uninstall removes a freed communicator from the context-id index.
func (p *Proc) uninstall(c *Comm) { delete(p.cidIndex, c.CID) }

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
// consumed. Only the runtime's internal requests are ever recycled;
// requests that escape to the implementation layer as user handles
// (Isend/Irecv results) are not. A non-done request is left alone — it
// may still sit in a match queue, and completion is the proof it has
// been dequeued everywhere (the failure sweeps remove before failing).
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
// track. Each algorithm method (BcastBinomial, AllreduceRabenseifner, …)
// brackets itself, so the trace records which algorithm the policy
// actually selected — the per-round spans nest inside it.
func (p *Proc) collBegin(name string) {
	if tr := p.tr; tr != nil {
		tr.Begin(trace.CatColl, name, p.ep.Clock().Now())
	}
}

// collEnd closes the slice collBegin opened; call via defer so error
// returns close it too.
func (p *Proc) collEnd(name string) {
	if tr := p.tr; tr != nil {
		tr.End(trace.CatColl, name, p.ep.Clock().Now())
	}
}
