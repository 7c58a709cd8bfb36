package mpicore

import (
	"repro/internal/fabric"
	"repro/internal/trace"
)

// traceMatch records a p2p match on the rank's trace track. name is the
// protocol ("match-eager", "match-rdv") — deliberately NOT the queue the
// match came from: whether a message is matched posted or unexpected is
// a property of the schedule, not of the program, and trace consumers
// compare names. The queue goes in the args instead.
func (p *Proc) traceMatch(name string, src int, tag int32, path string) {
	if tr := p.tr; tr != nil {
		tr.Instant(trace.CatP2P, name, p.ep.Clock().Now(),
			trace.Arg{Key: "src", Val: trace.Itoa(src)},
			trace.Arg{Key: "tag", Val: trace.Itoa(int(tag))},
			trace.Arg{Key: "path", Val: path})
	}
}

// Progress dispatches one arrived envelope. With block=true it waits
// for traffic; otherwise it returns immediately when nothing has
// arrived. Arrivals are drained from the fabric mailbox a whole burst
// per lock hop into p.batch, but served — clock-accounted and
// dispatched — strictly one per Progress call. The one-per-call pace is
// load-bearing for the virtual clock: an envelope must be accounted at
// the Progress call that consumes it, after any sends the caller issued
// in between have advanced the clock. Accounting a queued burst eagerly
// would fold each AdvanceTo(arrival) in at a lower clock value and
// inflate simulated latencies (observed: ~2x on the 8-rank gate
// benches). MPI-style progress is driven only from inside MPI calls,
// which this reproduces: the engine runs inside Send/Recv/Wait/etc.
func (p *Proc) Progress(block bool) int {
	if p.batchPos == len(p.batch) {
		p.batch = p.batch[:0]
		p.batchPos = 0
		if block {
			p.batch = p.ep.RecvBatch(p.batch)
			if len(p.batch) == 0 {
				return p.E.ErrOther // world closed under us
			}
		} else {
			p.batch = p.ep.TryRecvBatch(p.batch)
			if len(p.batch) == 0 {
				return p.E.Success
			}
		}
	}
	e := p.batch[p.batchPos]
	p.batch[p.batchPos] = nil
	p.batchPos++
	p.ep.AccountRecv(e)
	p.dispatch(e)
	return p.E.Success
}

// dispatch routes one arrived envelope through the eager/rendezvous
// protocol state machine. Envelopes consumed here go back to the pool;
// only unmatched eager/RTS traffic is retained (on the unexpected
// queue, until a matching receive consumes it in postRecv). Payload
// slices may outlive their envelope — PutEnvelope recycles the struct
// only; the payload is released by whoever consumes its bytes.
func (p *Proc) dispatch(e *fabric.Envelope) {
	if p.repl != nil && !p.replAdmit(e) {
		return // duplicate replica delivery, already recycled
	}
	switch e.Proto {
	case fabric.ProtoEager:
		if r := p.matchPosted(e); r != nil {
			p.deliverPayload(r, e.Src, e.Tag, e.Payload)
			p.traceMatch("match-eager", e.Src, e.Tag, "posted")
			fabric.PutEnvelope(e)
		} else {
			p.unexpected = append(p.unexpected, e)
		}
	case fabric.ProtoRTS:
		if r := p.matchPosted(e); r != nil {
			p.acceptRTS(e, r)
			p.traceMatch("match-rdv", e.Src, e.Tag, "posted")
			fabric.PutEnvelope(e)
		} else {
			p.unexpected = append(p.unexpected, e)
		}
	case fabric.ProtoCTS:
		if s, ok := p.pendingSend[e.Seq]; ok {
			delete(p.pendingSend, e.Seq)
			d := fabric.GetEnvelope()
			d.Dst = e.Src
			d.CID = s.cid
			d.Proto = fabric.ProtoData
			d.Seq = e.Seq
			d.Payload = s.payload
			if s.owned {
				p.ep.SendOwned(d)
			} else {
				p.ep.Send(d)
			}
			s.payload = nil
			s.done = true
			s.code = p.E.Success
		}
		fabric.PutEnvelope(e)
	case fabric.ProtoData:
		key := seqKey{peer: e.Src, seq: e.Seq}
		if r, ok := p.awaitingData[key]; ok {
			delete(p.awaitingData, key)
			p.deliverPayload(r, e.Src, r.status.Tag, e.Payload)
		}
		fabric.PutEnvelope(e)
	case fabric.ProtoCtrl:
		p.handleCtrl(e)
		fabric.PutEnvelope(e)
	}
}

// envMatches applies the matching rule. Wildcards use the owning
// implementation's constant values (Consts), so each ABI's matching
// semantics are honored without translation.
func (p *Proc) envMatches(r *Request, e *fabric.Envelope) bool {
	if e.CID != r.cid {
		return false
	}
	if r.srcWorld != p.K.AnySource && e.Src != r.srcWorld {
		return false
	}
	if r.tag != p.K.AnyTag && e.Tag != int32(r.tag) {
		return false
	}
	return true
}

// matchPosted finds and removes the oldest posted recv matching e.
func (p *Proc) matchPosted(e *fabric.Envelope) *Request {
	for i, r := range p.posted {
		if p.envMatches(r, e) {
			p.posted = append(p.posted[:i], p.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// matchUnexpected finds and removes the oldest unexpected envelope
// matching a fresh recv.
func (p *Proc) matchUnexpected(r *Request) *fabric.Envelope {
	for i, e := range p.unexpected {
		if p.envMatches(r, e) {
			p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
			return e
		}
	}
	return nil
}

// deliverPayload completes a receive with the given packed payload, which
// this rank owns (see fabric.Envelope): a typed receive unpacks and
// recycles it here, a raw one passes it on in rawOut for collWait (or a
// recovery view) to consume.
func (p *Proc) deliverPayload(r *Request, srcWorld int, tag int32, payload []byte) {
	r.status.Source = int32(srcWorld) // world rank; converted to comm rank below
	if r.comm != nil {
		r.status.Source = int32(r.comm.PosOf(srcWorld))
	}
	r.status.Tag = tag
	r.done = true
	if r.raw {
		r.rawOut = payload
		r.status.CountBytes = uint64(len(payload))
		r.code = p.E.Success
		r.status.Error = int32(p.E.Success)
		return
	}
	capacity := r.count * r.dt.T.Size()
	n := len(payload)
	if n > capacity {
		n = capacity
		r.code = p.E.ErrTruncate
	} else {
		r.code = p.E.Success
	}
	if _, err := r.dt.T.UnpackPartial(payload[:n], r.buf); err != nil {
		r.code = p.E.ErrIntern
	}
	p.ep.Release(payload) // unpacked into the user's buffer; nothing else holds it
	r.status.CountBytes = uint64(n)
	r.status.Error = int32(r.code)
}

// acceptRTS answers a rendezvous request-to-send for a matched recv.
func (p *Proc) acceptRTS(e *fabric.Envelope, r *Request) {
	// Remember the tag now; the data envelope only carries the seq.
	r.status.Tag = e.Tag
	p.awaitingData[seqKey{peer: e.Src, seq: e.Seq}] = r
	cts := fabric.GetEnvelope()
	cts.Dst = e.Src
	cts.CID = e.CID
	cts.Proto = fabric.ProtoCTS
	cts.Seq = e.Seq
	p.ep.Send(cts)
}

// postRecv registers a receive request, matching the unexpected queue
// first. Data the peer sent before dying is still deliverable (the
// fail-stop ordering guarantees it was dispatched ahead of the failure
// notice), so the queue match runs before the doom checks; a recv that
// can no longer be satisfied completes immediately with the ULFM error
// instead of blocking forever.
func (p *Proc) postRecv(r *Request) {
	if e := p.matchUnexpected(r); e != nil {
		switch e.Proto {
		case fabric.ProtoEager:
			p.deliverPayload(r, e.Src, e.Tag, e.Payload)
			p.traceMatch("match-eager", e.Src, e.Tag, "unexpected")
		case fabric.ProtoRTS:
			p.acceptRTS(e, r)
			p.traceMatch("match-rdv", e.Src, e.Tag, "unexpected")
		}
		fabric.PutEnvelope(e)
		return
	}
	if code, doomed := p.recvDoom(r); doomed {
		p.failRequest(r, code)
		return
	}
	p.posted = append(p.posted, r)
}

// sendInternal implements blocking and nonblocking sends on an arbitrary
// context id. Payloads at or below the policy's eager threshold (and
// self-sends) travel with the envelope; larger ones run the RTS/CTS/Data
// rendezvous. Returns the request for rendezvous progress, or nil if the
// send completed immediately (eager path). owned=true transfers packed
// to the receiver without a defensive copy — legal only when the caller
// never touches packed again (see Request.owned).
func (p *Proc) sendInternal(packed []byte, destWorld int, tag int32, cid uint32, owned bool) *Request {
	if p.repl != nil {
		p.replSend(packed, destWorld, tag, cid, owned)
		return nil
	}
	if len(packed) <= p.pol.EagerMax || destWorld == p.rank {
		e := fabric.GetEnvelope()
		e.Dst = destWorld
		e.CID = cid
		e.Tag = tag
		e.Proto = fabric.ProtoEager
		e.Payload = packed
		if owned {
			p.ep.SendOwned(e)
		} else {
			p.ep.Send(e)
		}
		return nil
	}
	p.nextRdvSeq++
	seq := p.nextRdvSeq
	r := p.getReq()
	r.kind = reqSend
	r.payload = packed
	r.dest = destWorld
	r.seq = seq
	r.cid = cid
	r.owned = owned
	p.pendingSend[seq] = r
	e := fabric.GetEnvelope()
	e.Dst = destWorld
	e.CID = cid
	e.Tag = tag
	e.Proto = fabric.ProtoRTS
	e.Seq = seq
	e.Hdr = uint64(len(packed))
	p.ep.Send(e)
	return r
}

// validateRankTag checks peer and tag arguments against a communicator,
// in the implementation's own constant vocabulary.
func (p *Proc) validateRankTag(c *Comm, peer, tag int, sending bool) int {
	if peer == p.K.ProcNull {
		return p.E.Success
	}
	if sending {
		if tag < 0 || tag > p.K.TagUB {
			return p.E.ErrTag
		}
	} else if tag != p.K.AnyTag && (tag < 0 || tag > p.K.TagUB) {
		return p.E.ErrTag
	}
	if !sending && peer == p.K.AnySource {
		return p.E.Success
	}
	if peer < 0 || peer >= c.Size() {
		return p.E.ErrRank
	}
	return p.E.Success
}

// PackElems packs count elements of dt from buf into a wire buffer from
// the endpoint's freelist (Pack writes all count*Size bytes of it). The
// caller owns the result: it hands it to an owned send, or Releases it.
func (p *Proc) PackElems(dt *Type, buf []byte, count int) ([]byte, int) {
	if count == 0 {
		return nil, p.E.Success
	}
	out := p.ep.Alloc(count * dt.T.Size())
	if _, err := dt.T.Pack(buf, count, out); err != nil {
		return nil, p.E.ErrBuffer
	}
	return out, p.E.Success
}

// checkCommType is the shared argument prologue of the p2p calls. It
// also enforces revocation: once a communicator is revoked, every
// regular operation on it answers ErrRevoked without touching the wire
// (ULFM's poisoning rule) — only the recovery collectives in ulfm.go
// keep working.
func (p *Proc) checkCommType(c *Comm, dt *Type) int {
	if c == nil {
		return p.E.ErrComm
	}
	if p.ft.Revoked(c.CID) {
		return p.E.ErrRevoked
	}
	if dt == nil || !dt.T.Committed() {
		return p.E.ErrType
	}
	return p.E.Success
}

// Send is blocking standard-mode MPI_Send.
func (p *Proc) Send(buf []byte, count int, dt *Type, dest, tag int, c *Comm) int {
	if code := p.checkCommType(c, dt); code != p.E.Success {
		return code
	}
	if code := p.validateRankTag(c, dest, tag, true); code != p.E.Success {
		return code
	}
	if count < 0 {
		return p.E.ErrCount
	}
	if dest == p.K.ProcNull {
		return p.E.Success
	}
	if p.ft.Failed(c.Ranks[dest]) {
		return p.E.ErrProcFailed
	}
	packed, code := p.PackElems(dt, buf, count)
	if code != p.E.Success {
		return code
	}
	r := p.sendInternal(packed, c.Ranks[dest], int32(tag), c.CID, true)
	for r != nil && !r.done {
		if code := p.Progress(true); code != p.E.Success {
			return code
		}
	}
	if r != nil {
		code := r.code
		p.putReq(r)
		return code
	}
	return p.E.Success
}

// buildRecv validates arguments and constructs a recv request (nil for
// PROC_NULL sources).
func (p *Proc) buildRecv(buf []byte, count int, dt *Type, source, tag int, c *Comm) (*Request, int) {
	if code := p.checkCommType(c, dt); code != p.E.Success {
		return nil, code
	}
	if code := p.validateRankTag(c, source, tag, false); code != p.E.Success {
		return nil, code
	}
	if count < 0 {
		return nil, p.E.ErrCount
	}
	if source == p.K.ProcNull {
		return nil, p.E.Success
	}
	srcWorld := p.K.AnySource
	if source != p.K.AnySource {
		srcWorld = c.Ranks[source]
	}
	r := p.getReq()
	r.kind = reqRecv
	r.comm = c
	r.buf = buf
	r.count = count
	r.dt = dt
	r.srcWorld = srcWorld
	r.tag = tag
	r.cid = c.CID
	return r, p.E.Success
}

// ProcNullStatus fills st with the implementation's PROC_NULL sentinels.
func (p *Proc) ProcNullStatus(st *Status) {
	st.Source = int32(p.K.ProcNull)
	st.Tag = int32(p.K.AnyTag)
	st.Error = int32(p.E.Success)
	st.CountBytes = 0
}

// Recv is blocking MPI_Recv. A nil st discards the status.
func (p *Proc) Recv(buf []byte, count int, dt *Type, source, tag int, c *Comm, st *Status) int {
	r, code := p.buildRecv(buf, count, dt, source, tag, c)
	if code != p.E.Success {
		return code
	}
	if r == nil { // PROC_NULL
		if st != nil {
			p.ProcNullStatus(st)
		}
		return p.E.Success
	}
	p.postRecv(r)
	for !r.done {
		if code := p.Progress(true); code != p.E.Success {
			return code
		}
	}
	if st != nil {
		*st = r.status
	}
	code = r.code
	p.putReq(r)
	return code
}

// Isend is nonblocking MPI_Isend. The returned request must be completed
// with Wait/Test/Waitall; a PROC_NULL destination (and the eager path)
// yield an already-done request.
func (p *Proc) Isend(buf []byte, count int, dt *Type, dest, tag int, c *Comm) (*Request, int) {
	if code := p.checkCommType(c, dt); code != p.E.Success {
		return nil, code
	}
	if code := p.validateRankTag(c, dest, tag, true); code != p.E.Success {
		return nil, code
	}
	if count < 0 {
		return nil, p.E.ErrCount
	}
	if dest == p.K.ProcNull {
		return &Request{kind: reqSend, done: true, code: p.E.Success}, p.E.Success
	}
	if p.ft.Failed(c.Ranks[dest]) {
		return nil, p.E.ErrProcFailed
	}
	packed, code := p.PackElems(dt, buf, count)
	if code != p.E.Success {
		return nil, code
	}
	r := p.sendInternal(packed, c.Ranks[dest], int32(tag), c.CID, true)
	if r == nil {
		r = &Request{kind: reqSend, done: true, code: p.E.Success}
	}
	return r, p.E.Success
}

// Irecv is nonblocking MPI_Irecv.
func (p *Proc) Irecv(buf []byte, count int, dt *Type, source, tag int, c *Comm) (*Request, int) {
	r, code := p.buildRecv(buf, count, dt, source, tag, c)
	if code != p.E.Success {
		return nil, code
	}
	if r == nil { // PROC_NULL: complete immediately
		pn := &Request{kind: reqRecv, done: true, code: p.E.Success}
		p.ProcNullStatus(&pn.status)
		return pn, p.E.Success
	}
	p.postRecv(r)
	return r, p.E.Success
}

// Wait completes one request. A nil request is the null request: it
// completes immediately with a PROC_NULL status.
func (p *Proc) Wait(r *Request, st *Status) int {
	if r == nil {
		if st != nil {
			p.ProcNullStatus(st)
		}
		return p.E.Success
	}
	for !r.done {
		if code := p.Progress(true); code != p.E.Success {
			return code
		}
	}
	if st != nil {
		*st = r.status
	}
	return r.code
}

// Test polls one request; outcome=(completed, code).
func (p *Proc) Test(r *Request, st *Status) (bool, int) {
	if r == nil {
		if st != nil {
			p.ProcNullStatus(st)
		}
		return true, p.E.Success
	}
	if !r.done {
		if code := p.Progress(false); code != p.E.Success {
			return false, code
		}
	}
	if !r.done {
		return false, p.E.Success
	}
	if st != nil {
		*st = r.status
	}
	return true, r.code
}

// Waitall completes a set of requests. sts may be nil or match len(reqs).
func (p *Proc) Waitall(reqs []*Request, sts []Status) int {
	if sts != nil && len(sts) != len(reqs) {
		return p.E.ErrArg
	}
	rc := p.E.Success
	for i, r := range reqs {
		var st Status
		if code := p.Wait(r, &st); code != p.E.Success {
			rc = code
		}
		if sts != nil {
			sts[i] = st
		}
	}
	return rc
}

// Sendrecv posts the receive, runs the send, then completes the receive —
// the deadlock-free composite MPI_Sendrecv.
func (p *Proc) Sendrecv(sendbuf []byte, scount int, stype *Type, dest, stag int,
	recvbuf []byte, rcount int, rtype *Type, source, rtag int,
	c *Comm, st *Status) int {
	rr, code := p.Irecv(recvbuf, rcount, rtype, source, rtag, c)
	if code != p.E.Success {
		return code
	}
	if code := p.Send(sendbuf, scount, stype, dest, stag, c); code != p.E.Success {
		return code
	}
	code = p.Wait(rr, st)
	p.putReq(rr)
	return code
}
