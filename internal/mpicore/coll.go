package mpicore

import (
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/types"
)

// collNow reads the rank clock only when tracing is on; it pairs with
// collRound to bracket one collective round. The untraced path is a
// single pointer compare.
func (p *Proc) collNow() simnet.Time {
	if p.tr != nil {
		return p.ep.Clock().Now()
	}
	return 0
}

// collRound emits one completed collective-round span — a nested slice
// under the algorithm's Begin/End bracket — from the clock captured by
// collNow to now.
func (p *Proc) collRound(name string, t0 simnet.Time, peer int, tag int32) {
	if tr := p.tr; tr != nil {
		tr.Span(trace.CatColl, name, t0, p.ep.Clock().Now(),
			trace.Arg{Key: "peer", Val: trace.Itoa(peer)},
			trace.Arg{Key: "tag", Val: trace.Itoa(int(tag))})
	}
}

// Policy is one implementation's algorithm personality: the protocol
// switchover, its context-id derivation stream, and a selection function
// per collective. The selections are where the simulated implementations
// legitimately differ (MPICH's binomial/Rabenseifner/Bruck thresholds vs
// Open MPI's tuned binary/chain/ring thresholds); everything a selection
// can pick from is implemented once, below.
type Policy struct {
	// EagerMax is the eager/rendezvous protocol switchover in bytes.
	EagerMax int
	// DeriveCID derives a child communicator's context id from the
	// parent's id and a creation ordinal (see FNV1aCIDDeriver and
	// SaltedCIDDeriver).
	DeriveCID func(parent, ordinal uint32) uint32

	// Collective algorithm selections. Each receives validated inputs in
	// packed form from the generic wrappers; tag is the reserved tag
	// block for this collective call.
	Barrier   func(p *Proc, c *Comm, tag int32) int
	Bcast     func(p *Proc, c *Comm, packed []byte, root int, tag int32) int
	Reduce    func(p *Proc, c *Comm, acc []byte, o *Op, k types.Kind, root int, tag int32) int
	Allreduce func(p *Proc, c *Comm, acc []byte, o *Op, k types.Kind, tag int32) int
	// Gather fills region (n blocks, absolute rank order, root only) from
	// every rank's own packed block. Scatter is its inverse: it
	// distributes region (absolute order, root only) and fills own with
	// the caller's block. Allgather fills region (own block pre-placed at
	// MyPos) on every rank. Alltoall moves out (packed per destination)
	// into in (packed per source).
	//
	// A buffer handed to a selection is either the wrapper's scratch,
	// from the world's freelist with ARBITRARY initial contents, or, for
	// a datatype with no holes, the caller's own memory (see
	// inCallerBufs). So an algorithm must write every byte of an output
	// (a non-root packed, acc, region, Scatter's own, in) before
	// returning success, and must never write an input (out, the root's
	// packed, Gather's own, the root's Scatter region): the caller may
	// still be using it. An input and an output overlap only where one
	// buffer is both (acc, Allgather's region). If a selection fails, a
	// rendezvous send it left pending is given a private copy of its
	// payload by the wrapper (collFailed).
	Gather    func(p *Proc, c *Comm, own, region []byte, blockSz, root int, tag int32) int
	Scatter   func(p *Proc, c *Comm, region, own []byte, blockSz, root int, tag int32) int
	Allgather func(p *Proc, c *Comm, region []byte, blockSz int, tag int32) int
	Alltoall  func(p *Proc, c *Comm, out, in []byte, blockSz int, tag int32) int
}

// NextCollTag reserves a tag block for one collective call on c. Each
// call gets 64 tag values (rounds 0..63); successive collectives on the
// same communicator never share tags.
func (p *Proc) NextCollTag(c *Comm) int32 {
	c.CollSeq++
	return int32((c.CollSeq & 0x00ffffff) << 6)
}

// CollSend sends packed bytes to a communicator rank on the collective
// context, blocking until the payload is handed to the fabric. A dead
// peer fails the collective with ErrProcFailed instead of silently
// dropping a round on the floor (the hang ULFM's detection replaces).
func (p *Proc) CollSend(c *Comm, peer int, tag int32, data []byte) int {
	if p.ft.Failed(c.Ranks[peer]) {
		return p.E.ErrProcFailed
	}
	t0 := p.collNow()
	// data is a caller-owned buffer the algorithm may keep folding into
	// after this call returns, so the fabric's defensive copy stays
	// (owned=false) — see Request.owned.
	r := p.sendInternal(data, c.Ranks[peer], tag, c.CID|collCIDBit, false)
	for r != nil && !r.done {
		if code := p.Progress(true); code != p.E.Success {
			return code
		}
	}
	if r != nil {
		code := r.code
		p.putReq(r)
		if code == p.E.Success {
			p.collRound("coll-send", t0, peer, tag)
		}
		return code
	}
	p.collRound("coll-send", t0, peer, tag)
	return p.E.Success
}

// CollRecvPost posts a raw receive on the collective context without
// waiting.
func (p *Proc) CollRecvPost(c *Comm, peer int, tag int32) *Request {
	r := p.getReq()
	r.kind = reqRecv
	r.comm = c
	r.raw = true
	r.srcWorld = c.Ranks[peer]
	r.tag = int(tag)
	r.cid = c.CID | collCIDBit
	p.postRecv(r)
	return r
}

// collWait blocks until the raw receive r completes, then consumes its
// payload — copied into dst (as much as fits), or folded into dst when o
// is non-nil — and recycles the payload buffer and the request. The
// collective algorithms receive only through it and its four wrappers
// below, so none of them ever holds a pooled slice: the payload is back
// on the world's freelist before the caller sees the result.
func (p *Proc) collWait(r *Request, dst []byte, o *Op, k types.Kind) int {
	for !r.done {
		if code := p.Progress(true); code != p.E.Success {
			return code
		}
	}
	code := r.code
	if code == p.E.Success {
		if o != nil {
			code = p.Fold(o, k, dst, r.rawOut)
		} else {
			copy(dst, r.rawOut)
		}
	}
	p.ep.Release(r.rawOut)
	p.putReq(r)
	return code
}

func (p *Proc) collRecv(c *Comm, peer int, tag int32, dst []byte, o *Op, k types.Kind) int {
	t0 := p.collNow()
	code := p.collWait(p.CollRecvPost(c, peer, tag), dst, o, k)
	if code == p.E.Success {
		p.collRound("coll-recv", t0, peer, tag)
	}
	return code
}

// collExchange posts the receive before sending, making symmetric
// pairwise exchanges deadlock-free even on the rendezvous path. dst may
// alias data: the send has copied data out before dst is written.
func (p *Proc) collExchange(c *Comm, sendTo, recvFrom int, tag int32, data, dst []byte, o *Op, k types.Kind) int {
	t0 := p.collNow()
	r := p.CollRecvPost(c, recvFrom, tag)
	if code := p.CollSend(c, sendTo, tag, data); code != p.E.Success {
		return code
	}
	code := p.collWait(r, dst, o, k)
	if code == p.E.Success {
		p.collRound("coll-exchange", t0, sendTo, tag)
	}
	return code
}

// CollRecvInto blocks for a packed message from a communicator rank on
// the collective context and copies it into dst (nil discards it).
func (p *Proc) CollRecvInto(c *Comm, peer int, tag int32, dst []byte) int {
	return p.collRecv(c, peer, tag, dst, nil, 0)
}

// CollRecvFold is CollRecvInto folding the message into acc with o.
func (p *Proc) CollRecvFold(c *Comm, peer int, tag int32, o *Op, k types.Kind, acc []byte) int {
	return p.collRecv(c, peer, tag, acc, o, k)
}

// CollExchangeInto sends data to one communicator rank and copies the
// message from another into dst (nil discards it).
func (p *Proc) CollExchangeInto(c *Comm, sendTo, recvFrom int, tag int32, data, dst []byte) int {
	return p.collExchange(c, sendTo, recvFrom, tag, data, dst, nil, 0)
}

// CollExchangeFold is CollExchangeInto folding the message into acc.
func (p *Proc) CollExchangeFold(c *Comm, sendTo, recvFrom int, tag int32, data []byte, o *Op, k types.Kind, acc []byte) int {
	return p.collExchange(c, sendTo, recvFrom, tag, data, acc, o, k)
}

// ReduceKind extracts the uniform primitive kind needed for a reduction.
func (p *Proc) ReduceKind(dt *Type) (types.Kind, int) {
	k, ok := dt.T.PrimKind()
	if !ok {
		return types.KindInvalid, p.E.ErrType
	}
	return k, p.E.Success
}

// Fold folds in into acc (packed buffers of the same uniform kind).
func (p *Proc) Fold(o *Op, k types.Kind, acc, in []byte) int {
	count := len(acc) / k.Size()
	if o.User != "" {
		fn, _, err := ops.LookupUser(o.User)
		if err != nil {
			return p.E.ErrOp
		}
		fn(acc, in, k, count)
		return p.E.Success
	}
	if err := ops.Apply(o.Op, k, acc, in, count); err != nil {
		return p.E.ErrOp
	}
	return p.E.Success
}

// OpDefined checks operator/kind compatibility including user ops (which
// accept any uniform kind).
func OpDefined(o *Op, k types.Kind) bool {
	if o.User != "" {
		return true
	}
	return ops.Compatible(o.Op, k)
}

// ---------------------------------------------------------------------------
// Generic wrappers: validation, packing and unpacking are identical in
// every implementation; only the policy's algorithm selection differs.
//
// Their pack and staging buffers come from the world's freelist
// (fabric.Endpoint.Alloc) and go back on the SUCCESS return only: after
// an error a rendezvous send the algorithm started may still reference
// the buffer (its CTS arrives at some later Progress), so the buffer is
// left to the garbage collector.
// ---------------------------------------------------------------------------

// inCallerBufs is the one test a wrapper makes before it stages a
// collective. When both datatypes have no holes, packing is a plain copy
// (the split Pack and Unpack make too); if send also holds the sn bytes
// the policy reads and recv the rn bytes it writes, the wrapper hands the
// policy the caller's own buffers and packs and unpacks nothing.
// Otherwise it stages through freelist buffers, and a short buffer fails
// where it always failed, with the same code.
func inCallerBufs(send []byte, sn int, stype *Type, recv []byte, rn int, rtype *Type) bool {
	return stype.T.Contiguousp() && rtype.T.Contiguousp() && len(send) >= sn && len(recv) >= rn
}

// collFailed is a wrapper's return path after its policy failed with
// code. A rendezvous send the collective started (sequence after since)
// may still wait for its CTS, and its payload may be the caller's buffer,
// which the caller is free to change once the call returns. Each such
// send gets a private copy from the freelist, owned by the send, so a
// late CTS ships the bytes as they were sent.
func (p *Proc) collFailed(since uint64, code int) int {
	for seq, s := range p.pendingSend {
		if seq > since && !s.owned {
			b := p.ep.Alloc(len(s.payload))
			copy(b, s.payload)
			s.payload, s.owned = b, true
		}
	}
	return code
}

// Barrier blocks until every member of c has entered it.
func (p *Proc) Barrier(c *Comm) int {
	if c == nil {
		return p.E.ErrComm
	}
	if p.ft.Revoked(c.CID) {
		return p.E.ErrRevoked
	}
	if c.Size() == 1 {
		return p.E.Success
	}
	tag := p.NextCollTag(c)
	return p.pol.Barrier(p, c, tag)
}

// Bcast broadcasts count elements of dt from root.
func (p *Proc) Bcast(buf []byte, count int, dt *Type, root int, c *Comm) int {
	if code := p.checkCommType(c, dt); code != p.E.Success {
		return code
	}
	if root < 0 || root >= c.Size() {
		return p.E.ErrRoot
	}
	if count < 0 {
		return p.E.ErrCount
	}
	n, me := c.Size(), c.MyPos
	nbytes := count * dt.T.Size()
	if n == 1 || nbytes == 0 {
		return p.E.Success
	}
	tag := p.NextCollTag(c)
	var packed []byte
	direct := inCallerBufs(buf, nbytes, dt, buf, nbytes, dt)
	switch {
	case direct:
		packed = buf[:nbytes]
	case me == root:
		var code int
		if packed, code = p.PackElems(dt, buf, count); code != p.E.Success {
			return code
		}
	default:
		packed = p.ep.Alloc(nbytes)
	}
	since := p.nextRdvSeq
	if code := p.pol.Bcast(p, c, packed, root, tag); code != p.E.Success {
		return p.collFailed(since, code)
	}
	if direct {
		return p.E.Success
	}
	if me != root {
		if _, err := dt.T.Unpack(packed, count, buf); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(packed)
	return p.E.Success
}

// Reduce folds every rank's contribution into recvbuf at root.
func (p *Proc) Reduce(sendbuf, recvbuf []byte, count int, dt *Type, o *Op, root int, c *Comm) int {
	if code := p.checkCommType(c, dt); code != p.E.Success {
		return code
	}
	if o == nil {
		return p.E.ErrOp
	}
	if root < 0 || root >= c.Size() {
		return p.E.ErrRoot
	}
	if count < 0 {
		return p.E.ErrCount
	}
	k, code := p.ReduceKind(dt)
	if code != p.E.Success {
		return code
	}
	if !OpDefined(o, k) {
		return p.E.ErrOp
	}
	acc, code := p.PackElems(dt, sendbuf, count)
	if code != p.E.Success {
		return code
	}
	tag := p.NextCollTag(c)
	if code := p.pol.Reduce(p, c, acc, o, k, root, tag); code != p.E.Success {
		return code
	}
	if c.MyPos == root && count > 0 {
		if _, err := dt.T.Unpack(acc, count, recvbuf); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(acc)
	return p.E.Success
}

// Allreduce folds every rank's contribution into recvbuf on every rank.
func (p *Proc) Allreduce(sendbuf, recvbuf []byte, count int, dt *Type, o *Op, c *Comm) int {
	if code := p.checkCommType(c, dt); code != p.E.Success {
		return code
	}
	if o == nil {
		return p.E.ErrOp
	}
	if count < 0 {
		return p.E.ErrCount
	}
	k, code := p.ReduceKind(dt)
	if code != p.E.Success {
		return code
	}
	if !OpDefined(o, k) {
		return p.E.ErrOp
	}
	// In the caller's buffers the reduction runs in place in recvbuf,
	// seeded with one copy of sendbuf.
	var acc []byte
	nbytes := count * dt.T.Size()
	direct := inCallerBufs(sendbuf, nbytes, dt, recvbuf, nbytes, dt)
	if direct {
		acc = recvbuf[:nbytes]
		copy(acc, sendbuf)
	} else if acc, code = p.PackElems(dt, sendbuf, count); code != p.E.Success {
		return code
	}
	tag := p.NextCollTag(c)
	since := p.nextRdvSeq
	if c.Size() > 1 && len(acc) > 0 {
		if code := p.pol.Allreduce(p, c, acc, o, k, tag); code != p.E.Success {
			return p.collFailed(since, code)
		}
	}
	if direct {
		return p.E.Success
	}
	if count > 0 {
		if _, err := dt.T.Unpack(acc, count, recvbuf); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(acc)
	return p.E.Success
}

// Gather collects every rank's scount elements at root.
func (p *Proc) Gather(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, root int, c *Comm) int {
	if code := p.checkCommType(c, stype); code != p.E.Success {
		return code
	}
	if root < 0 || root >= c.Size() {
		return p.E.ErrRoot
	}
	if scount < 0 || rcount < 0 {
		return p.E.ErrCount
	}
	n, me := c.Size(), c.MyPos
	blockSz := scount * stype.T.Size()
	own, code := p.PackElems(stype, sendbuf, scount)
	if code != p.E.Success {
		return code
	}
	if own == nil {
		own = []byte{} // scount == 0: an empty block, not a missing one
	}
	// Reserve the tag block before any validation that only the root
	// performs: every member must advance CollSeq in lockstep, or a
	// root-side argument error would silently desynchronize the tag
	// stream for every later collective on this communicator.
	tag := p.NextCollTag(c)
	var region []byte
	if me == root {
		if rtype == nil || !rtype.T.Committed() {
			return p.E.ErrType
		}
		if rcount*rtype.T.Size() != blockSz {
			return p.E.ErrTruncate
		}
		region = p.ep.Alloc(n * blockSz)
	}
	if code := p.pol.Gather(p, c, own, region, blockSz, root, tag); code != p.E.Success {
		return code
	}
	if me == root && blockSz > 0 {
		for r := 0; r < n; r++ {
			if _, err := rtype.T.Unpack(region[r*blockSz:(r+1)*blockSz], rcount,
				recvbuf[r*rcount*rtype.T.Extent():]); err != nil {
				return p.E.ErrBuffer
			}
		}
	}
	p.ep.Release(own)
	p.ep.Release(region)
	return p.E.Success
}

// Scatter distributes root's n blocks of scount elements.
func (p *Proc) Scatter(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, root int, c *Comm) int {
	if code := p.checkCommType(c, rtype); code != p.E.Success {
		return code
	}
	if root < 0 || root >= c.Size() {
		return p.E.ErrRoot
	}
	if scount < 0 || rcount < 0 {
		return p.E.ErrCount
	}
	n, me := c.Size(), c.MyPos
	blockSz := rcount * rtype.T.Size()
	// Tag reservation precedes the root-only validation; see Gather.
	tag := p.NextCollTag(c)
	var region []byte
	if me == root {
		if stype == nil || !stype.T.Committed() {
			return p.E.ErrType
		}
		if scount*stype.T.Size() != blockSz {
			return p.E.ErrTruncate
		}
		region = p.ep.Alloc(n * blockSz)
		for r := 0; r < n; r++ {
			if _, err := stype.T.Pack(sendbuf[r*scount*stype.T.Extent():], scount,
				region[r*blockSz:(r+1)*blockSz]); err != nil && scount > 0 {
				return p.E.ErrBuffer
			}
		}
	}
	own := p.ep.Alloc(blockSz)
	if code := p.pol.Scatter(p, c, region, own, blockSz, root, tag); code != p.E.Success {
		return code
	}
	if blockSz > 0 {
		if _, err := rtype.T.Unpack(own, rcount, recvbuf); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(own)
	p.ep.Release(region)
	return p.E.Success
}

// Allgather collects every rank's block on every rank.
func (p *Proc) Allgather(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, c *Comm) int {
	if code := p.checkCommType(c, stype); code != p.E.Success {
		return code
	}
	if rtype == nil || !rtype.T.Committed() {
		return p.E.ErrType
	}
	if scount < 0 || rcount < 0 {
		return p.E.ErrCount
	}
	n, me := c.Size(), c.MyPos
	blockSz := scount * stype.T.Size()
	if rcount*rtype.T.Size() != blockSz {
		return p.E.ErrTruncate
	}
	// In the caller's buffers the blocks gather in place in recvbuf,
	// the caller's own block copied to its slot first.
	var region []byte
	direct := inCallerBufs(sendbuf, blockSz, stype, recvbuf, n*blockSz, rtype)
	if direct {
		region = recvbuf[:n*blockSz]
		copy(region[me*blockSz:(me+1)*blockSz], sendbuf)
	} else {
		region = p.ep.Alloc(n * blockSz)
		if blockSz > 0 {
			if _, err := stype.T.Pack(sendbuf, scount, region[me*blockSz:(me+1)*blockSz]); err != nil {
				return p.E.ErrBuffer
			}
		}
	}
	tag := p.NextCollTag(c)
	since := p.nextRdvSeq
	if n > 1 && blockSz > 0 {
		if code := p.pol.Allgather(p, c, region, blockSz, tag); code != p.E.Success {
			return p.collFailed(since, code)
		}
	}
	if direct {
		return p.E.Success
	}
	for r := 0; r < n && blockSz > 0; r++ {
		if _, err := rtype.T.Unpack(region[r*blockSz:(r+1)*blockSz], rcount,
			recvbuf[r*rcount*rtype.T.Extent():]); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(region)
	return p.E.Success
}

// Alltoall exchanges distinct blocks between every pair of ranks.
func (p *Proc) Alltoall(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, c *Comm) int {
	if code := p.checkCommType(c, stype); code != p.E.Success {
		return code
	}
	if rtype == nil || !rtype.T.Committed() {
		return p.E.ErrType
	}
	if scount < 0 || rcount < 0 {
		return p.E.ErrCount
	}
	n := c.Size()
	blockSz := scount * stype.T.Size()
	if rcount*rtype.T.Size() != blockSz {
		return p.E.ErrTruncate
	}
	var out, in []byte
	direct := inCallerBufs(sendbuf, n*blockSz, stype, recvbuf, n*blockSz, rtype)
	if direct {
		out, in = sendbuf[:n*blockSz], recvbuf[:n*blockSz]
	} else {
		out = p.ep.Alloc(n * blockSz)
		for d := 0; d < n; d++ {
			if _, err := stype.T.Pack(sendbuf[d*scount*stype.T.Extent():], scount,
				out[d*blockSz:(d+1)*blockSz]); err != nil && scount > 0 {
				return p.E.ErrBuffer
			}
		}
		in = p.ep.Alloc(n * blockSz)
	}
	tag := p.NextCollTag(c)
	since := p.nextRdvSeq
	if n == 1 || blockSz == 0 {
		copy(in, out)
	} else if code := p.pol.Alltoall(p, c, out, in, blockSz, tag); code != p.E.Success {
		return p.collFailed(since, code)
	}
	if direct {
		return p.E.Success
	}
	for r := 0; r < n; r++ {
		if _, err := rtype.T.Unpack(in[r*blockSz:(r+1)*blockSz], rcount,
			recvbuf[r*rcount*rtype.T.Extent():]); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(out)
	p.ep.Release(in)
	return p.E.Success
}

// ---------------------------------------------------------------------------
// The algorithm set. Each implementation's Policy composes these with its
// own thresholds.
// ---------------------------------------------------------------------------

// BarrierDissemination is MPICH's dissemination barrier: ceil(log2 n)
// rounds of token exchanges at power-of-two distances.
func (p *Proc) BarrierDissemination(c *Comm, tag int32) int {
	p.collBegin("BarrierDissemination")
	defer p.collEnd("BarrierDissemination")
	n, me := c.Size(), c.MyPos
	round := int32(0)
	for mask := 1; mask < n; mask <<= 1 {
		to := (me + mask) % n
		from := (me - mask + n) % n
		if code := p.CollExchangeInto(c, to, from, tag+round, nil, nil); code != p.E.Success {
			return code
		}
		round++
	}
	return p.E.Success
}

// BarrierRDFold is the tuned recursive-doubling barrier with a fold for
// non-power-of-two sizes (Open MPI's default for mid-size communicators).
func (p *Proc) BarrierRDFold(c *Comm, tag int32) int {
	p.collBegin("BarrierRDFold")
	defer p.collEnd("BarrierRDFold")
	n, me := c.Size(), c.MyPos
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newrank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if code := p.CollSend(c, me+1, tag, nil); code != p.E.Success {
			return code
		}
	case me < 2*rem:
		if code := p.CollRecvInto(c, me-1, tag, nil); code != p.E.Success {
			return code
		}
		newrank = me / 2
	default:
		newrank = me - rem
	}
	if newrank != -1 {
		round := int32(1)
		for mask := 1; mask < pof2; mask <<= 1 {
			pn := newrank ^ mask
			partner := pn + rem
			if pn < rem {
				partner = pn*2 + 1
			}
			if code := p.CollExchangeInto(c, partner, partner, tag+round, nil, nil); code != p.E.Success {
				return code
			}
			round++
		}
	}
	if me < 2*rem {
		if me%2 != 0 {
			return p.CollSend(c, me-1, tag+63, nil)
		}
		return p.CollRecvInto(c, me+1, tag+63, nil)
	}
	return p.E.Success
}

// BcastBinomial is the binomial-tree broadcast over relative ranks.
func (p *Proc) BcastBinomial(c *Comm, packed []byte, root int, tag int32) int {
	p.collBegin("BcastBinomial")
	defer p.collEnd("BcastBinomial")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			if code := p.CollRecvInto(c, abs(rel-mask), tag, packed); code != p.E.Success {
				return code
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			if code := p.CollSend(c, abs(rel+mask), tag, packed); code != p.E.Success {
				return code
			}
		}
	}
	return p.E.Success
}

// chunks splits a length into n nearly-equal pieces: the first rem get
// one unit more than the rest. Piece i spans [off(i), off(i+1)).
type chunks struct{ base, rem int }

func chunksOf(length, n int) chunks { return chunks{length / n, length % n} }

func (ck chunks) off(i int) int { return i*ck.base + min(i, ck.rem) }

// BcastScatterRing scatters the buffer binomially over relative ranks and
// reassembles with a ring allgather, MPICH's long-message broadcast.
func (p *Proc) BcastScatterRing(c *Comm, packed []byte, root int, tag int32) int {
	p.collBegin("BcastScatterRing")
	defer p.collEnd("BcastScatterRing")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	ck := chunksOf(len(packed), n)

	// Binomial scatter: the holder of relative range [rel, rel+mask) hands
	// the upper half to its child.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			if code := p.CollRecvInto(c, abs(rel-mask), tag, packed[ck.off(rel):]); code != p.E.Success {
				return code
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			hi := rel + 2*mask
			if hi > n {
				hi = n
			}
			child := rel + mask
			if code := p.CollSend(c, abs(child), tag, packed[ck.off(child):ck.off(hi)]); code != p.E.Success {
				return code
			}
		}
	}

	// Ring allgather of the n chunks over relative ranks. The root
	// already holds every chunk and discards what it receives: its packed
	// is an input (see Policy).
	for s := 0; s < n-1; s++ {
		sendChunk := (rel - s + n) % n
		recvChunk := (rel - s - 1 + n) % n
		var dst []byte
		if rel != 0 {
			dst = packed[ck.off(recvChunk):ck.off(recvChunk+1)]
		}
		if code := p.CollExchangeInto(c, abs((rel+1)%n), abs((rel-1+n)%n), tag+1,
			packed[ck.off(sendChunk):ck.off(sendChunk+1)], dst); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}

// BcastBinaryTree broadcasts down an in-order binary tree over relative
// ranks: children of relative node r are 2r+1 and 2r+2.
func (p *Proc) BcastBinaryTree(c *Comm, packed []byte, root int, tag int32) int {
	p.collBegin("BcastBinaryTree")
	defer p.collEnd("BcastBinaryTree")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	if rel != 0 {
		parent := (rel - 1) / 2
		if code := p.CollRecvInto(c, abs(parent), tag, packed); code != p.E.Success {
			return code
		}
	}
	for _, child := range []int{2*rel + 1, 2*rel + 2} {
		if child < n {
			if code := p.CollSend(c, abs(child), tag, packed); code != p.E.Success {
				return code
			}
		}
	}
	return p.E.Success
}

// BcastChain pipelines segSize segments down the rank chain
// root -> root+1 -> ... -> root+n-1 (relative order).
func (p *Proc) BcastChain(c *Comm, packed []byte, root int, tag int32, segSize int) int {
	p.collBegin("BcastChain")
	defer p.collEnd("BcastChain")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	nseg := (len(packed) + segSize - 1) / segSize
	for s := 0; s < nseg; s++ {
		lo := s * segSize
		hi := lo + segSize
		if hi > len(packed) {
			hi = len(packed)
		}
		if rel != 0 {
			if code := p.CollRecvInto(c, abs(rel-1), tag, packed[lo:hi]); code != p.E.Success {
				return code
			}
		}
		if rel != n-1 {
			if code := p.CollSend(c, abs(rel+1), tag, packed[lo:hi]); code != p.E.Success {
				return code
			}
		}
	}
	return p.E.Success
}

// ReduceBinomial folds up a binomial tree over relative ranks
// (commutative operators), MPICH's selection.
func (p *Proc) ReduceBinomial(c *Comm, acc []byte, o *Op, k types.Kind, root int, tag int32) int {
	p.collBegin("ReduceBinomial")
	defer p.collEnd("ReduceBinomial")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			childRel := rel | mask
			if childRel < n {
				if code := p.CollRecvFold(c, abs(childRel), tag, o, k, acc); code != p.E.Success {
					return code
				}
			}
		} else {
			if code := p.CollSend(c, abs(rel-mask), tag, acc); code != p.E.Success {
				return code
			}
			break
		}
	}
	return p.E.Success
}

// ReduceBinaryTree folds up an in-order binary tree over relative ranks,
// Open MPI's selection.
func (p *Proc) ReduceBinaryTree(c *Comm, acc []byte, o *Op, k types.Kind, root int, tag int32) int {
	p.collBegin("ReduceBinaryTree")
	defer p.collEnd("ReduceBinaryTree")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	for _, child := range []int{2*rel + 1, 2*rel + 2} {
		if child < n {
			if code := p.CollRecvFold(c, abs(child), tag, o, k, acc); code != p.E.Success {
				return code
			}
		}
	}
	if rel != 0 {
		parent := (rel - 1) / 2
		if code := p.CollSend(c, abs(parent), tag, acc); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}

// AllreduceRecDoubling handles any communicator size by folding the
// non-power-of-two remainder into the nearest power of two first.
// unfoldRound is the tag round of the final unfold exchange (the two
// historical implementations use different rounds; the difference is
// preserved so wire traces stay stable).
func (p *Proc) AllreduceRecDoubling(c *Comm, acc []byte, o *Op, k types.Kind, tag int32, unfoldRound int32) int {
	p.collBegin("AllreduceRecDoubling")
	defer p.collEnd("AllreduceRecDoubling")
	n, me := c.Size(), c.MyPos
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newrank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if code := p.CollSend(c, me+1, tag, acc); code != p.E.Success {
			return code
		}
	case me < 2*rem: // odd rank in the folded region
		if code := p.CollRecvFold(c, me-1, tag, o, k, acc); code != p.E.Success {
			return code
		}
		newrank = me / 2
	default:
		newrank = me - rem
	}
	if newrank != -1 {
		round := int32(1)
		for mask := 1; mask < pof2; mask <<= 1 {
			partnerNew := newrank ^ mask
			partner := partnerNew + rem
			if partnerNew < rem {
				partner = partnerNew*2 + 1
			}
			if code := p.CollExchangeFold(c, partner, partner, tag+round, acc, o, k, acc); code != p.E.Success {
				return code
			}
			round++
		}
	}
	// Unfold: odd folded ranks return results to their even partners.
	if me < 2*rem {
		if me%2 != 0 {
			return p.CollSend(c, me-1, tag+unfoldRound, acc)
		}
		return p.CollRecvInto(c, me+1, tag+unfoldRound, acc)
	}
	return p.E.Success
}

// AllreduceRabenseifner is the long-message reduce-scatter plus allgather
// algorithm for power-of-two communicators (MPICH's selection).
func (p *Proc) AllreduceRabenseifner(c *Comm, acc []byte, o *Op, k types.Kind, tag int32) int {
	p.collBegin("AllreduceRabenseifner")
	defer p.collEnd("AllreduceRabenseifner")
	n, me := c.Size(), c.MyPos
	es := k.Size()
	elems := len(acc) / es
	type span struct{ lo, hi int }
	// One entry per halving round; 32 covers any communicator without
	// leaving the goroutine stack.
	stack := make([]span, 0, 32)
	cur := span{0, elems}
	round := int32(0)
	// Reduce-scatter by recursive halving.
	for dist := n / 2; dist >= 1; dist /= 2 {
		partner := me ^ dist
		mid := (cur.lo + cur.hi) / 2
		var keep, give span
		if me < partner {
			keep, give = span{cur.lo, mid}, span{mid, cur.hi}
		} else {
			keep, give = span{mid, cur.hi}, span{cur.lo, mid}
		}
		if code := p.CollExchangeFold(c, partner, partner, tag+round, acc[give.lo*es:give.hi*es],
			o, k, acc[keep.lo*es:keep.hi*es]); code != p.E.Success {
			return code
		}
		stack = append(stack, cur)
		cur = keep
		round++
	}
	// Allgather by recursive doubling, unwinding the halving stack.
	for dist := 1; dist < n; dist *= 2 {
		partner := me ^ dist
		parent := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Partner owned the complementary half of the parent span.
		other := acc[parent.lo*es : cur.lo*es]
		if cur.lo == parent.lo {
			other = acc[cur.hi*es : parent.hi*es]
		}
		if code := p.CollExchangeInto(c, partner, partner, tag+round, acc[cur.lo*es:cur.hi*es], other); code != p.E.Success {
			return code
		}
		cur = parent
		round++
	}
	return p.E.Success
}

// AllreduceRing is the bandwidth-optimal ring: n-1 reduce-scatter steps
// followed by n-1 allgather steps over element chunks (Open MPI's
// long-message selection).
func (p *Proc) AllreduceRing(c *Comm, acc []byte, o *Op, k types.Kind, tag int32) int {
	p.collBegin("AllreduceRing")
	defer p.collEnd("AllreduceRing")
	n, me := c.Size(), c.MyPos
	es := k.Size()
	elems := len(acc) / es
	ck := chunksOf(elems, n)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	chunk := func(i int) []byte { return acc[ck.off(i)*es : ck.off(i+1)*es] }
	// Reduce-scatter ring.
	for s := 0; s < n-1; s++ {
		sendIdx := (me - s + n) % n
		recvIdx := (me - s - 1 + n) % n
		if code := p.CollExchangeFold(c, right, left, tag, chunk(sendIdx), o, k, chunk(recvIdx)); code != p.E.Success {
			return code
		}
	}
	// Allgather ring.
	for s := 0; s < n-1; s++ {
		sendIdx := (me + 1 - s + n) % n
		recvIdx := (me - s + n) % n
		if code := p.CollExchangeInto(c, right, left, tag+1, chunk(sendIdx), chunk(recvIdx)); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}

// GatherBinomial aggregates subtree block ranges up a binomial tree over
// relative ranks (MPICH's selection), rotating into absolute order at the
// root.
func (p *Proc) GatherBinomial(c *Comm, own, region []byte, blockSz, root int, tag int32) int {
	p.collBegin("GatherBinomial")
	defer p.collEnd("GatherBinomial")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	// work[:span*blockSz] is written before it is sent or unscrambled:
	// own first, then each child's subtree range appended behind it.
	work := p.ep.Alloc(n * blockSz)
	copy(work[:blockSz], own)
	span := 1
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			childRel := rel + mask
			if childRel < n {
				childSpan := mask
				if childRel+childSpan > n {
					childSpan = n - childRel
				}
				if code := p.CollRecvInto(c, abs(childRel), tag,
					work[span*blockSz:(span+childSpan)*blockSz]); code != p.E.Success {
					return code
				}
				span += childSpan
			}
		} else {
			if code := p.CollSend(c, abs(rel-mask), tag, work[:span*blockSz]); code != p.E.Success {
				return code
			}
			p.ep.Release(work)
			return p.E.Success
		}
		mask <<= 1
	}
	// Only the root reaches here. Unscramble relative order into region.
	for r := 0; r < n; r++ {
		relPos := (r - root + n) % n
		copy(region[r*blockSz:(r+1)*blockSz], work[relPos*blockSz:(relPos+1)*blockSz])
	}
	p.ep.Release(work)
	return p.E.Success
}

// GatherLinear is the basic linear gather with nonblocking overlap: the
// root posts every receive, then drains (Open MPI's selection).
func (p *Proc) GatherLinear(c *Comm, own, region []byte, blockSz, root int, tag int32) int {
	p.collBegin("GatherLinear")
	defer p.collEnd("GatherLinear")
	n, me := c.Size(), c.MyPos
	if me != root {
		return p.CollSend(c, root, tag, own)
	}
	reqs := p.collReqs(n)
	for r := 0; r < n; r++ {
		if r != me {
			reqs[r] = p.CollRecvPost(c, r, tag)
		}
	}
	copy(region[me*blockSz:(me+1)*blockSz], own)
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		if code := p.collWait(reqs[r], region[r*blockSz:(r+1)*blockSz], nil, 0); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}

// ScatterBinomial distributes region down a binomial tree over relative
// ranks (MPICH's selection), filling own with the caller's block.
func (p *Proc) ScatterBinomial(c *Comm, region, own []byte, blockSz, root int, tag int32) int {
	p.collBegin("ScatterBinomial")
	defer p.collEnd("ScatterBinomial")
	n, me := c.Size(), c.MyPos
	rel := (me - root + n) % n
	abs := func(r int) int { return (r + root) % n }
	// Only the caller's subtree range of work is ever read, and it is
	// written first: by the rotation at the root, by the receive elsewhere.
	work := p.ep.Alloc(n * blockSz)
	if me == root {
		// Rotate into relative order.
		for r := 0; r < n; r++ {
			relPos := (r - root + n) % n
			copy(work[relPos*blockSz:(relPos+1)*blockSz], region[r*blockSz:(r+1)*blockSz])
		}
	}
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			mySpan := mask
			if rel+mySpan > n {
				mySpan = n - rel
			}
			if code := p.CollRecvInto(c, abs(rel-mask), tag, work[rel*blockSz:(rel+mySpan)*blockSz]); code != p.E.Success {
				return code
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask >= 1; mask >>= 1 {
		if rel+mask < n {
			child := rel + mask
			hi := rel + 2*mask
			if hi > n {
				hi = n
			}
			if code := p.CollSend(c, abs(child), tag, work[child*blockSz:hi*blockSz]); code != p.E.Success {
				return code
			}
		}
	}
	copy(own, work[rel*blockSz:(rel+1)*blockSz])
	p.ep.Release(work)
	return p.E.Success
}

// ScatterLinear is the basic linear scatter: the root sends each block
// (Open MPI's selection).
func (p *Proc) ScatterLinear(c *Comm, region, own []byte, blockSz, root int, tag int32) int {
	p.collBegin("ScatterLinear")
	defer p.collEnd("ScatterLinear")
	n, me := c.Size(), c.MyPos
	if me != root {
		return p.CollRecvInto(c, root, tag, own)
	}
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		if code := p.CollSend(c, r, tag, region[r*blockSz:(r+1)*blockSz]); code != p.E.Success {
			return code
		}
	}
	copy(own, region[me*blockSz:(me+1)*blockSz])
	return p.E.Success
}

// AllgatherRecDoubling doubles the known block range each round
// (power-of-two communicators; MPICH's short-message selection).
func (p *Proc) AllgatherRecDoubling(c *Comm, region []byte, blockSz int, tag int32) int {
	p.collBegin("AllgatherRecDoubling")
	defer p.collEnd("AllgatherRecDoubling")
	n, me := c.Size(), c.MyPos
	round := int32(0)
	for dist := 1; dist < n; dist *= 2 {
		partner := me ^ dist
		myLo := me &^ (dist - 1)
		partnerLo := partner &^ (dist - 1)
		if code := p.CollExchangeInto(c, partner, partner, tag+round,
			region[myLo*blockSz:(myLo+dist)*blockSz], region[partnerLo*blockSz:(partnerLo+dist)*blockSz]); code != p.E.Success {
			return code
		}
		round++
	}
	return p.E.Success
}

// AllgatherRing rotates blocks around the ring for n-1 steps (the
// long-message workhorse both historical implementations share).
func (p *Proc) AllgatherRing(c *Comm, region []byte, blockSz int, tag int32) int {
	p.collBegin("AllgatherRing")
	defer p.collEnd("AllgatherRing")
	n, me := c.Size(), c.MyPos
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendBlock := (me - s + n) % n
		recvBlock := (me - s - 1 + n) % n
		if code := p.CollExchangeInto(c, right, left, tag,
			region[sendBlock*blockSz:(sendBlock+1)*blockSz], region[recvBlock*blockSz:(recvBlock+1)*blockSz]); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}

// AllgatherBruck doubles the known prefix each round; block j of the
// working buffer holds rank (me+j)'s contribution until the final rotate
// (Open MPI's small-block selection).
func (p *Proc) AllgatherBruck(c *Comm, region []byte, blockSz int, tag int32) int {
	p.collBegin("AllgatherBruck")
	defer p.collEnd("AllgatherBruck")
	n, me := c.Size(), c.MyPos
	// tmp fills front to back: own block, then each round's transfer.
	tmp := p.ep.Alloc(n * blockSz)
	copy(tmp[:blockSz], region[me*blockSz:(me+1)*blockSz])
	cnt := 1
	round := int32(0)
	for cnt < n {
		transfer := cnt
		if n-cnt < transfer {
			transfer = n - cnt
		}
		to := (me - cnt + n) % n
		from := (me + cnt) % n
		if code := p.CollExchangeInto(c, to, from, tag+round,
			tmp[:transfer*blockSz], tmp[cnt*blockSz:(cnt+transfer)*blockSz]); code != p.E.Success {
			return code
		}
		cnt += transfer
		round++
	}
	for j := 0; j < n; j++ {
		src := (me + j) % n
		copy(region[src*blockSz:(src+1)*blockSz], tmp[j*blockSz:(j+1)*blockSz])
	}
	p.ep.Release(tmp)
	return p.E.Success
}

// AlltoallBruck runs in ceil(log2 n) rounds, each moving all blocks whose
// (rotated) index has the round's bit set.
func (p *Proc) AlltoallBruck(c *Comm, out, in []byte, blockSz int, tag int32) int {
	p.collBegin("AlltoallBruck")
	defer p.collEnd("AlltoallBruck")
	n, me := c.Size(), c.MyPos
	// Phase 1: local rotation; tmp[i] = block destined to (me+i) mod n.
	tmp := p.ep.Alloc(n * blockSz)
	for i := 0; i < n; i++ {
		d := (me + i) % n
		copy(tmp[i*blockSz:(i+1)*blockSz], out[d*blockSz:(d+1)*blockSz])
	}
	round := int32(0)
	// Each round gathers the blocks whose index has the round's bit set
	// into the front of sendbuf, exchanges them, and scatters what came
	// back from recvbuf into the same slots.
	half := (n + 1) / 2 * blockSz // no bit is set in more than half of 0..n-1, rounded up
	sendbuf, recvbuf := p.ep.Alloc(half), p.ep.Alloc(half)
	for pow := 1; pow < n; pow <<= 1 {
		nb := 0
		for i := 0; i < n; i++ {
			if i&pow != 0 {
				copy(sendbuf[nb*blockSz:], tmp[i*blockSz:(i+1)*blockSz])
				nb++
			}
		}
		to := (me + pow) % n
		from := (me - pow + n) % n
		if code := p.CollExchangeInto(c, to, from, tag+round,
			sendbuf[:nb*blockSz], recvbuf[:nb*blockSz]); code != p.E.Success {
			return code
		}
		nb = 0
		for i := 0; i < n; i++ {
			if i&pow != 0 {
				copy(tmp[i*blockSz:(i+1)*blockSz], recvbuf[nb*blockSz:])
				nb++
			}
		}
		round++
	}
	// Phase 3: block from source s sits at index (me-s+n) mod n.
	for s := 0; s < n; s++ {
		i := (me - s + n) % n
		copy(in[s*blockSz:(s+1)*blockSz], tmp[i*blockSz:(i+1)*blockSz])
	}
	p.ep.Release(tmp)
	p.ep.Release(sendbuf)
	p.ep.Release(recvbuf)
	return p.E.Success
}

// AlltoallOverlap posts every receive, starts every send nonblocking,
// then drains — maximal overlap across peers (MPICH's medium-message and
// Open MPI's basic-linear algorithm).
func (p *Proc) AlltoallOverlap(c *Comm, out, in []byte, blockSz int, tag int32) int {
	p.collBegin("AlltoallOverlap")
	defer p.collEnd("AlltoallOverlap")
	n, me := c.Size(), c.MyPos
	copy(in[me*blockSz:(me+1)*blockSz], out[me*blockSz:(me+1)*blockSz])
	// reqs[i] and reqs[n+i] are the receive from and the send to the peer
	// at offset i; eager sends complete at once and leave their slot nil.
	reqs := p.collReqs(2 * n)
	for i := 1; i < n; i++ {
		from := (me - i + n) % n
		reqs[i] = p.CollRecvPost(c, from, tag)
	}
	for i := 1; i < n; i++ {
		to := (me + i) % n
		reqs[n+i] = p.sendInternal(out[to*blockSz:(to+1)*blockSz], c.Ranks[to], tag, c.CID|collCIDBit, false)
	}
	for i := 1; i < n; i++ {
		from := (me - i + n) % n
		if code := p.collWait(reqs[i], in[from*blockSz:(from+1)*blockSz], nil, 0); code != p.E.Success {
			return code
		}
	}
	for _, s := range reqs[n+1:] {
		for s != nil && !s.done {
			if code := p.Progress(true); code != p.E.Success {
				return code
			}
		}
		p.putReq(s)
	}
	return p.E.Success
}

// AlltoallPairwise exchanges with peers at increasing offsets; step k
// pairs rank r with r+k (send) and r-k (recv). MPICH's long-message
// selection.
func (p *Proc) AlltoallPairwise(c *Comm, out, in []byte, blockSz int, tag int32) int {
	p.collBegin("AlltoallPairwise")
	defer p.collEnd("AlltoallPairwise")
	n, me := c.Size(), c.MyPos
	copy(in[me*blockSz:(me+1)*blockSz], out[me*blockSz:(me+1)*blockSz])
	for k := 1; k < n; k++ {
		to := (me + k) % n
		from := (me - k + n) % n
		if code := p.CollExchangeInto(c, to, from, tag,
			out[to*blockSz:(to+1)*blockSz], in[from*blockSz:(from+1)*blockSz]); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}
