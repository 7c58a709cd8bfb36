package mpicore

import (
	"repro/internal/fabric"
	"repro/internal/trace"
	"repro/internal/ulfm"
)

// ulfmBegin/ulfmEnd bracket a recovery collective on the rank's trace
// track, like collBegin/collEnd for regular collectives.
func (p *Proc) ulfmBegin(name string) {
	if tr := p.tr; tr != nil {
		tr.Begin(trace.CatUlfm, name, p.ep.Clock().Now())
	}
}

func (p *Proc) ulfmEnd(name string) {
	if tr := p.tr; tr != nil {
		tr.End(trace.CatUlfm, name, p.ep.Clock().Now())
	}
}

// fmtRanks renders a rank list as a compact trace arg value.
func fmtRanks(ranks []int) string {
	s := ""
	for i, r := range ranks {
		if i > 0 {
			s += ","
		}
		s += trace.Itoa(r)
	}
	return s
}

// This file is the communicating half of the ULFM subsystem (see
// internal/ulfm for the state half): failure propagation through the
// progress engine, communicator revocation, and the recovery collectives
// MPIX_Comm_shrink and MPIX_Comm_agree — implemented once, below every
// ABI, like the rest of the runtime. The implementation packages expose
// these through their own constant vocabularies (their own MPIX error
// code numbering in particular), which is the cross-ABI divergence the
// paper's fault-tolerance argument turns on.

// ftTagBit marks fault-tolerant (shrink/agree) traffic. Regular
// collective tag blocks are NextCollTag's (CollSeq & 0xffffff) << 6 —
// bits 6..29 — so bit 30 keeps the two spaces disjoint on the wire:
// after a failure, one survivor's straggling collective rounds can never
// match another survivor's recovery exchange.
const ftTagBit int32 = 1 << 30

// nextFtTag reserves a fault-tolerant tag block on c. It advances
// UlfmSeq, not CollSeq: survivors of a failure may have attempted
// different numbers of regular collectives (CollSeq diverges exactly
// when ULFM is needed), but they call the recovery collectives in the
// same order, so UlfmSeq is the counter they still share.
func (p *Proc) nextFtTag(c *Comm) int32 {
	c.UlfmSeq++
	return ftTagBit | int32((c.UlfmSeq&0x00ffffff)<<6)
}

// handleCtrl dispatches a control-plane envelope: the fabric's failure
// notice, or a peer's revocation notice.
func (p *Proc) handleCtrl(e *fabric.Envelope) {
	switch e.Tag {
	case ulfm.CtrlFailure:
		// The fabric names PHYSICAL dead ranks; on a replicated world the
		// replica layer decides whether a logical rank actually failed
		// (both replicas down) or merely promoted its shadow.
		dead := ulfm.DecodeRanks(e.Payload)
		if tr := p.tr; tr != nil {
			tr.Instant(trace.CatUlfm, "notice", p.ep.Clock().Now(),
				trace.Arg{Key: "ranks", Val: fmtRanks(dead)})
		}
		if p.repl != nil {
			p.replNoteFailure(dead)
			return
		}
		if p.ft.NoteFailed(dead...) {
			p.sweepFailed()
		}
	case ulfm.CtrlRevoke:
		p.revokeLocal(e.CID)
	}
}

// failRequest completes a request with a ULFM error code.
func (p *Proc) failRequest(r *Request, code int) {
	r.done = true
	r.code = code
	r.status.Error = int32(code)
}

// recvDoom decides whether a pending receive can no longer complete:
// its matched source is dead, or — for wildcard receives, per ULFM's
// MPI_ANY_SOURCE rule — some member of the communicator is dead and not
// yet acknowledged (acknowledged failures stop poisoning wildcards, so
// CommFailureAck re-arms them). Fault-tolerant (shrink/agree) receives
// only doom on their direct peer.
func (p *Proc) recvDoom(r *Request) (int, bool) {
	if r.srcWorld != p.K.AnySource {
		if p.ft.Failed(r.srcWorld) {
			return p.E.ErrProcFailed, true
		}
	} else if !r.ft && r.comm != nil && p.ft.HasUnacked(r.comm.CID, r.comm.Ranks) {
		return p.E.ErrProcFailed, true
	}
	if !r.ft && p.ft.Revoked(r.cid&^collCIDBit) {
		return p.E.ErrRevoked, true
	}
	return p.E.Success, false
}

// sweepFailed completes every pending operation stranded by newly-known
// deaths: posted receives whose source (or, unacknowledged, whose
// wildcard communicator) is dead, rendezvous sends waiting on a dead
// receiver's clear-to-send, and matched receives waiting on a dead
// sender's data. This is what turns "peer is gone" from a hang into
// ErrProcFailed — the failure-detection guarantee ULFM specifies.
func (p *Proc) sweepFailed() {
	keep := p.posted[:0]
	for _, r := range p.posted {
		if r.srcWorld != p.K.AnySource && p.ft.Failed(r.srcWorld) {
			p.failRequest(r, p.E.ErrProcFailed)
			continue
		}
		if !r.ft && r.srcWorld == p.K.AnySource && r.comm != nil &&
			p.ft.HasUnacked(r.comm.CID, r.comm.Ranks) {
			p.failRequest(r, p.E.ErrProcFailed)
			continue
		}
		keep = append(keep, r)
	}
	p.posted = keep
	for seq, s := range p.pendingSend {
		if p.ft.Failed(s.dest) {
			delete(p.pendingSend, seq)
			s.payload = nil
			p.failRequest(s, p.E.ErrProcFailed)
		}
	}
	for key, r := range p.awaitingData {
		if p.ft.Failed(key.peer) {
			delete(p.awaitingData, key)
			p.failRequest(r, p.E.ErrProcFailed)
		}
	}
}

// revokeLocal marks a context id revoked and poisons its pending
// traffic. Idempotent; fault-tolerant requests are exempt (ULFM's
// recovery collectives must keep working on a revoked communicator).
func (p *Proc) revokeLocal(cid uint32) {
	if !p.ft.Revoke(cid) {
		return
	}
	if tr := p.tr; tr != nil {
		tr.Instant(trace.CatUlfm, "revoke", p.ep.Clock().Now(),
			trace.Arg{Key: "cid", Val: trace.Itoa(int(cid))})
	}
	keep := p.posted[:0]
	for _, r := range p.posted {
		if !r.ft && r.cid&^collCIDBit == cid {
			p.failRequest(r, p.E.ErrRevoked)
			continue
		}
		keep = append(keep, r)
	}
	p.posted = keep
	for seq, s := range p.pendingSend {
		if !s.ft && s.cid&^collCIDBit == cid {
			delete(p.pendingSend, seq)
			s.payload = nil
			p.failRequest(s, p.E.ErrRevoked)
		}
	}
	for key, r := range p.awaitingData {
		if !r.ft && r.cid&^collCIDBit == cid {
			delete(p.awaitingData, key)
			p.failRequest(r, p.E.ErrRevoked)
		}
	}
}

// NoteFailed feeds deaths observed out of band (launcher-level failure
// detection) into the tracker, sweeping stranded operations. The fabric
// notice normally does this through dispatch; the entry point exists for
// implementation layers and tests.
func (p *Proc) NoteFailed(ranks ...int) {
	if p.repl != nil {
		p.replNoteFailure(ranks)
		return
	}
	if p.ft.NoteFailed(ranks...) {
		p.sweepFailed()
	}
}

// FailedRank reports whether world rank w is known dead.
func (p *Proc) FailedRank(w int) bool { return p.ft.Failed(w) }

// CommRevoked reports whether c has been revoked.
func (p *Proc) CommRevoked(c *Comm) bool { return c != nil && p.ft.Revoked(c.CID) }

// CommRevoke mirrors MPIX_Comm_revoke: it marks the communicator
// revoked locally and broadcasts the revocation to every other member.
// Revocation is not collective — any member may revoke unilaterally —
// and not an error: the call succeeds, and every *subsequent* regular
// operation on the communicator (here and, once the notice lands, on
// every other member) answers ErrRevoked. Idempotent.
func (p *Proc) CommRevoke(c *Comm) int {
	if c == nil {
		return p.E.ErrComm
	}
	if p.ft.Revoked(c.CID) {
		return p.E.Success
	}
	if tr := p.tr; tr != nil {
		tr.Instant(trace.CatUlfm, "CommRevoke", p.ep.Clock().Now(),
			trace.Arg{Key: "cid", Val: trace.Itoa(int(c.CID))})
	}
	p.revokeLocal(c.CID)
	for _, w := range c.Ranks {
		if p.ft.Failed(w) {
			continue
		}
		if p.repl != nil {
			p.replRevokeSend(c.CID, w)
			continue
		}
		if w == p.rank {
			continue
		}
		p.ep.Send(&fabric.Envelope{
			Dst: w, CID: c.CID, Proto: fabric.ProtoCtrl, Tag: ulfm.CtrlRevoke,
		})
	}
	return p.E.Success
}

// CommFailureAck mirrors MPIX_Comm_failure_ack: acknowledge every
// currently-known failure among c's members, re-arming wildcard-source
// receives on c (they stop raising ErrProcFailed for acknowledged
// deaths; a later death starts a new cycle).
func (p *Proc) CommFailureAck(c *Comm) int {
	if c == nil {
		return p.E.ErrComm
	}
	p.ft.Ack(c.CID, c.Ranks)
	return p.E.Success
}

// CommFailureGetAcked mirrors MPIX_Comm_failure_get_acked: the group of
// members whose failure has been acknowledged on c.
func (p *Proc) CommFailureGetAcked(c *Comm) (*Group, int) {
	if c == nil {
		return nil, p.E.ErrComm
	}
	return &Group{Ranks: p.ft.AckedRanks(c.CID, c.Ranks), MyPos: -1}, p.E.Success
}

// ftSend ships a fault-tolerant payload to a communicator rank, skipping
// known-dead peers (their mailboxes are gone; the fabric would drop the
// envelope anyway).
func (p *Proc) ftSend(c *Comm, pos int, tag int32, data []byte) int {
	w := c.Ranks[pos]
	if p.ft.Failed(w) {
		return p.E.Success
	}
	// ftExchange fans the same payload slice out to every believed-alive
	// peer, so the fabric must keep copying it (owned=false).
	r := p.sendInternal(data, w, tag, c.CID|collCIDBit, false)
	if r != nil {
		r.ft = true
	}
	for r != nil && !r.done {
		if code := p.Progress(true); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}

// ftRecvPost posts a fault-tolerant receive from a communicator rank.
func (p *Proc) ftRecvPost(c *Comm, pos int, tag int32) *Request {
	r := &Request{
		kind: reqRecv, comm: c, raw: true, ft: true,
		srcWorld: c.Ranks[pos], tag: int(tag), cid: c.CID | collCIDBit,
	}
	p.postRecv(r)
	return r
}

// ftExchange is the fault-tolerant all-to-all the recovery collectives
// are built on: every participant sends its payload to every member it
// believes alive and collects whatever arrives, treating a peer's death
// (detected at post time or by the failure sweep mid-wait) as a missing
// contribution rather than an error. views[pos] is nil for self, the
// dead, and the newly-dead. Liveness: believed-alive sets only shrink
// toward the truth, every actually-alive member sends to every member
// of its (superset) view, and receives from actually-dead members are
// completed by the failure notice's sweep — so no participant waits on
// a message that can never come.
func (p *Proc) ftExchange(c *Comm, tag int32, payload []byte) ([][]byte, int) {
	n := c.Size()
	views := make([][]byte, n)
	reqs := make([]*Request, n)
	for pos, w := range c.Ranks {
		if pos == c.MyPos || p.ft.Failed(w) {
			continue
		}
		reqs[pos] = p.ftRecvPost(c, pos, tag)
	}
	for pos, w := range c.Ranks {
		if pos == c.MyPos || p.ft.Failed(w) {
			continue
		}
		if code := p.ftSend(c, pos, tag, payload); code != p.E.Success {
			return views, code
		}
	}
	for pos, r := range reqs {
		if r == nil {
			continue
		}
		for !r.done {
			if code := p.Progress(true); code != p.E.Success {
				return views, code
			}
		}
		if r.code == p.E.Success {
			views[pos] = r.rawOut
		}
	}
	return views, p.E.Success
}

// encodeAgree packs one agreement contribution: the 64-bit flag plus the
// contributor's failed-set bitmap.
func encodeAgree(flag uint64, bm ulfm.Bitmap) []byte {
	out := make([]byte, 8+len(bm))
	for i := 0; i < 8; i++ {
		out[i] = byte(flag >> (8 * i))
	}
	copy(out[8:], bm)
	return out
}

// decodeAgree unpacks a contribution; ok=false rejects malformed ones.
func decodeAgree(b []byte, n int) (uint64, ulfm.Bitmap, bool) {
	if len(b) != 8+len(ulfm.NewBitmap(n)) {
		return 0, nil, false
	}
	var flag uint64
	for i := 0; i < 8; i++ {
		flag |= uint64(b[i]) << (8 * i)
	}
	return flag, ulfm.Bitmap(b[8:]), true
}

// agreeRounds runs the two-round fault-tolerant agreement over c: AND
// the flags, union the failed-set views. One round converges when every
// survivor already shares the failed set (the fabric announces each
// death to all survivors atomically at kill time); the second round
// re-propagates anything a participant learned mid-round, so staggered
// discovery of multiple failures still converges. Both rounds run
// unconditionally — the round count is part of the tag protocol and
// must be identical on every participant.
func (p *Proc) agreeRounds(c *Comm, flag uint64) (uint64, ulfm.Bitmap, int) {
	base := p.nextFtTag(c)
	bm := p.ft.FailedBitmap(p.size)
	agreed := flag
	for round := int32(0); round < 2; round++ {
		t0 := p.collNow()
		views, code := p.ftExchange(c, base|round, encodeAgree(agreed, bm))
		if code != p.E.Success {
			return 0, nil, code
		}
		for _, v := range views {
			if v == nil {
				continue
			}
			f, vb, ok := decodeAgree(v, p.size)
			if !ok {
				continue
			}
			agreed &= f
			bm.Or(vb)
		}
		if tr := p.tr; tr != nil {
			tr.Span(trace.CatUlfm, "agree-round", t0, p.ep.Clock().Now(),
				trace.Arg{Key: "round", Val: trace.Itoa(int(round))})
		}
	}
	// Deaths learned after the last fold (a sweep completing one of this
	// round's receives) still belong in the final view.
	bm.Or(p.ft.FailedBitmap(p.size))
	return agreed, bm, p.E.Success
}

// CommAgree mirrors MPIX_Comm_agree: a fault-tolerant agreement that
// returns the bitwise AND of every living participant's flag and — like
// the real call — acknowledges the failures it absorbed (it subsumes
// CommFailureAck), which is what makes it "an allreduce over acked
// failures": after Agree returns, every survivor shares both the value
// and the failure knowledge. It works on revoked communicators.
func (p *Proc) CommAgree(c *Comm, flag uint64) (uint64, int) {
	if c == nil {
		return 0, p.E.ErrComm
	}
	p.ulfmBegin("CommAgree")
	defer p.ulfmEnd("CommAgree")
	agreed, _, code := p.agreeRounds(c, flag)
	if code != p.E.Success {
		return 0, code
	}
	p.ft.Ack(c.CID, c.Ranks)
	return agreed, p.E.Success
}

// CommShrink mirrors MPIX_Comm_shrink: derive a survivors-only
// communicator from c — revoked or not. The members agree on the failed
// set first (the same two-round exchange as CommAgree), then every
// survivor deterministically builds the same child: the parent's rank
// list minus the agreed dead, and a context id derived through the
// policy's salted stream from the parent's id, the ULFM collective
// ordinal, and a digest of the agreed failed set — so distinct shrinks
// (or shrinks after different failures) can never alias, and all
// survivors compute the same cid with no extra round, exactly like the
// existing CommDup/CommSplit derivation.
func (p *Proc) CommShrink(c *Comm) (*Comm, int) {
	if c == nil {
		return nil, p.E.ErrComm
	}
	p.ulfmBegin("CommShrink")
	defer p.ulfmEnd("CommShrink")
	_, bm, code := p.agreeRounds(c, ^uint64(0))
	if code != p.E.Success {
		return nil, code
	}
	ranks := make([]int, 0, c.Size())
	myPos := -1
	for _, w := range c.Ranks {
		if bm.Has(w) {
			continue
		}
		if w == p.rank {
			myPos = len(ranks)
		}
		ranks = append(ranks, w)
	}
	if myPos == -1 {
		// The caller is in the agreed dead set: unreachable for a live
		// rank (the fabric never announces false deaths), kept as a
		// defensive error rather than a corrupt communicator.
		return nil, p.E.ErrIntern
	}
	ordinal := 0x80000000 | ((c.UlfmSeq<<8)^bm.Hash())&0x7fffffff
	nc := newComm(p.pol.DeriveCID(c.CID, ordinal), ranks, myPos)
	p.install(nc)
	return nc, p.E.Success
}
