package mpicore

import (
	"repro/internal/fabric"
	"repro/internal/trace"
	"repro/internal/ulfm"
)

// This file is the replication layer: FTHP-MPI-style active replication
// (arXiv:2504.09989) implemented once, beneath the communicator
// abstraction, so all three ABIs inherit it unchanged — the same
// placement argument that gave every implementation ULFM in ulfm.go.
//
// On a replicated world (fabric.NewReplicatedWorld) each logical rank
// is backed by two physical endpoints: primary r and shadow r+n, both
// executing the full program. The runtime instance rewires itself at
// NewProc: p.rank/p.size and every communicator speak LOGICAL ranks, so
// matching, collectives, context-id derivation and the ULFM tracker all
// run unchanged; only the wire is physical. Three interceptions do all
// the work:
//
//   - sends (replSend): every send is forced eager and duplicated to
//     both physical replicas of the logical destination, stamped with a
//     per-sender replication sequence number. Both replicas of a sender
//     execute the same deterministic program, so they stamp identical
//     sequences — the receiver cannot tell (and must not care) which
//     replica's copy arrives first.
//   - receives (replAdmit): arriving envelopes have their physical
//     source folded to its logical rank, and eager payloads are
//     deduplicated by (logical source, sequence): the first copy
//     delivers, the second is dropped and the entry forgotten.
//   - failure notices (replNoteFailure): the fabric announces PHYSICAL
//     deaths. A primary's death with a live shadow is a PROMOTION —
//     pure bookkeeping, no rollback, no shrink, no renumbering: the
//     shadow was already executing and already receiving every message.
//     Only when BOTH replicas of a logical rank are dead does the
//     logical rank enter the ULFM tracker, surfacing ErrProcFailed
//     exactly as an unreplicated death would.
//
// Costs and constraints, both deliberate: every message is paid for
// twice at the sender and twice at the receiver (the ~2x steady-state
// overhead the recoveryfrontier figure measures against checkpointing's
// lost-work window); MPI_ANY_SOURCE receives may observe different
// arrival interleavings on the two replicas of a receiver, so programs
// that branch on wildcard match order are outside the replication
// contract (FTHP-MPI shares this constraint; no program in this
// repository uses AnySource); and after a replica dies, its partner's
// messages arrive single-copy, so their dedup entries are never
// retired — bounded by the messages sent after the death.
type replState struct {
	n    int // logical world size (physical size is 2n)
	phys int // this instance's physical rank

	// sendSeq is the per-instance replication sequence stamped into
	// eager envelopes. Rendezvous never runs under replication, so the
	// Seq field is free for this (see sendInternal).
	sendSeq uint64
	// seen dedups deliveries by (logical source, sequence). An entry is
	// created by the first copy and retired by the second.
	seen map[seqKey]bool

	deadPhys []bool // physical replica deaths, from fabric notices
	promoted []bool // logical ranks running on their promoted shadow
}

// initReplication rewires a fresh Proc for a replicated world: called by
// NewProc before the predefined communicators are built, so CommWorld
// and CommSelf come out logical-shaped.
func (p *Proc) initReplication(w *fabric.World) {
	n := w.LogicalSize()
	p.repl = &replState{
		n:        n,
		phys:     p.rank,
		seen:     make(map[seqKey]bool),
		deadPhys: make([]bool, 2*n),
		promoted: make([]bool, n),
	}
	p.rank = p.repl.phys % n
	p.size = n
}

// PhysicalRank returns the instance's physical endpoint rank: equal to
// Rank() on an unreplicated world, and either Rank() (primary) or
// Rank()+Size() (shadow) on a replicated one.
func (p *Proc) PhysicalRank() int {
	if p.repl != nil {
		return p.repl.phys
	}
	return p.rank
}

// Shadow reports whether this instance is the shadow replica of its
// logical rank.
func (p *Proc) Shadow() bool { return p.repl != nil && p.repl.phys >= p.repl.n }

// Promoted reports whether logical rank lr is running on its promoted
// shadow (its primary died; the pair is still alive).
func (p *Proc) Promoted(lr int) bool {
	return p.repl != nil && lr >= 0 && lr < p.repl.n && p.repl.promoted[lr]
}

// replSend is sendInternal's replicated data path: one logical send
// becomes two eager envelopes, one per physical replica of the logical
// destination. Rendezvous is never attempted — duplicating a three-leg
// handshake would mean deduplicating each leg, for no modeling gain —
// so EagerMax is ignored and the Seq field carries the replication
// sequence instead. A send to a half-dead pair still ships both copies;
// the fabric drops the dead replica's on the wire, exactly like any
// send to a powered-off node.
func (p *Proc) replSend(packed []byte, destLogical int, tag int32, cid uint32, owned bool) {
	p.repl.sendSeq++
	seq := p.repl.sendSeq
	if tr := p.tr; tr != nil {
		tr.Instant(trace.CatRepl, "repl-dup", p.ep.Clock().Now(),
			trace.Arg{Key: "dst", Val: trace.Itoa(destLogical)},
			trace.Arg{Key: "seq", Val: trace.Itoa(int(seq))})
	}
	// Ownership transfers per receiver: when the caller hands the
	// payload over, only one replica may take it, and the other gets its
	// own copy here (an unowned payload is defensively copied by the
	// fabric on both sends anyway).
	dup := packed
	if owned && packed != nil {
		dup = p.ep.Alloc(len(packed))
		copy(dup, packed)
	}
	for i, dst := range [2]int{destLogical, destLogical + p.repl.n} {
		e := fabric.GetEnvelope()
		e.Dst = dst
		e.CID = cid
		e.Tag = tag
		e.Proto = fabric.ProtoEager
		e.Seq = seq
		if i == 0 {
			e.Payload = packed
		} else {
			e.Payload = dup
		}
		if owned {
			p.ep.SendOwned(e)
		} else {
			p.ep.Send(e)
		}
	}
}

// replAdmit runs before dispatch's protocol switch on a replicated
// world: it folds the physical source to its logical rank (so matching,
// status sources and the ULFM sweeps all see logical ranks) and drops
// the second copy of an already-delivered eager message. It reports
// whether dispatch should proceed; a dropped duplicate has already been
// clock-accounted by Progress — the duplicate traffic costs real
// (virtual) time, which is the point of measuring replication.
func (p *Proc) replAdmit(e *fabric.Envelope) bool {
	if e.Src >= 0 {
		e.Src %= p.repl.n
	}
	if e.Proto != fabric.ProtoEager {
		return true // ctrl traffic: failure notices carry physical ranks
		// in their payload (handled by replNoteFailure) and revocation
		// is idempotent, so neither needs dedup.
	}
	key := seqKey{peer: e.Src, seq: e.Seq}
	if p.repl.seen[key] {
		delete(p.repl.seen, key) // both copies consumed; retire the entry
		if tr := p.tr; tr != nil {
			tr.Instant(trace.CatRepl, "repl-dedup", p.ep.Clock().Now(),
				trace.Arg{Key: "src", Val: trace.Itoa(e.Src)},
				trace.Arg{Key: "seq", Val: trace.Itoa(int(e.Seq))})
		}
		p.ep.Release(e.Payload) // this replica's private copy, never delivered
		fabric.PutEnvelope(e)
		return false
	}
	p.repl.seen[key] = true
	return true
}

// replNoteFailure translates the fabric's physical death notice into
// replica bookkeeping. A primary dying with its shadow alive records a
// promotion and nothing else — no sweep, no error, no recovery
// collective: every peer keeps sending to both replicas and the
// promoted shadow keeps executing. Only a pair's second death makes the
// logical rank failed, feeding the ULFM tracker so pending operations
// complete with ErrProcFailed instead of hanging.
func (p *Proc) replNoteFailure(phys []int) {
	var logicalDead []int
	for _, r := range phys {
		if r < 0 || r >= 2*p.repl.n || p.repl.deadPhys[r] {
			continue
		}
		p.repl.deadPhys[r] = true
		lr := r % p.repl.n
		if p.repl.deadPhys[lr] && p.repl.deadPhys[lr+p.repl.n] {
			logicalDead = append(logicalDead, lr)
		} else if r == lr {
			p.repl.promoted[lr] = true
			if tr := p.tr; tr != nil {
				tr.Instant(trace.CatRepl, "promote", p.ep.Clock().Now(),
					trace.Arg{Key: "rank", Val: trace.Itoa(lr)})
			}
		}
	}
	if len(logicalDead) > 0 && p.ft.NoteFailed(logicalDead...) {
		p.sweepFailed()
	}
}

// replRevokeSend fans a revocation notice out to both physical replicas
// of logical member lr (CommRevoke's replicated wire path). The
// sender's own partner is included: revokeLocal is idempotent, and the
// notice covers the window before the partner's own CommRevoke call.
func (p *Proc) replRevokeSend(cid uint32, lr int) {
	for _, d := range [2]int{lr, lr + p.repl.n} {
		if d == p.repl.phys {
			continue
		}
		p.ep.Send(&fabric.Envelope{
			Dst: d, CID: cid, Proto: fabric.ProtoCtrl, Tag: ulfm.CtrlRevoke,
		})
	}
}
