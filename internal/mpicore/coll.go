package mpicore

import (
	"slices"

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
	// payload by the executor (collExec.fail).
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

// ---------------------------------------------------------------------------
// The round executor. Every algorithm below talks only through one.
// ---------------------------------------------------------------------------

// collExec is one collective call's communication, a value on the
// algorithm's stack. The algorithm states its pattern, one step per
// round, and the executor posts, sends, waits, folds and traces. After
// the first failure it communicates no more, so an algorithm runs to its
// end with no failure branch and returns what end reports. Peers are
// communicator ranks relative to root, which is 0 for the unrooted
// algorithms and for the linear gather and scatter (they index absolute
// ranks).
type collExec struct {
	p           *Proc
	c           *Comm
	name        string // the algorithm; names the call's trace slice
	tag         int32  // the call's tag block; a round is an offset into it
	root, n, me int
	o           *Op // a folding step's operator and kind
	k           types.Kind
	since       uint64 // the call's rendezvous sends have later sequences
	code        int    // Success until the first failure
}

// coll opens the trace slice and the executor of one call of the
// algorithm name, its peers relative to root.
func (p *Proc) coll(name string, c *Comm, root int, tag int32) collExec {
	p.collBegin(name)
	n := c.Size()
	return collExec{p: p, c: c, name: name, tag: tag, root: root, n: n,
		me: (c.MyPos - root + n) % n, since: p.nextRdvSeq, code: p.E.Success}
}

// end closes the call's trace slice and returns its code.
func (x *collExec) end() int {
	x.p.collEnd(x.name)
	return x.code
}

// abs is the communicator rank of a peer (every step maps up to three,
// so it adds rather than divides).
func (x *collExec) abs(peer int) int {
	if peer += x.root; peer >= x.n {
		peer -= x.n
	}
	return peer
}

// step is one round on tag+round: it receives from the peer from into
// recv (folding into recv with the call's operator when fold is set, or
// discarding the payload when recv is nil) while sending send to the peer
// to. The receive is posted before the send, which makes symmetric
// pairwise exchanges deadlock-free even on the rendezvous path, and recv
// may alias send: the send has copied send out before recv is written. A
// negative peer skips that side. The round is one coll-exchange,
// coll-send or coll-recv span.
func (x *collExec) step(to, from int, round int32, send, recv []byte, fold bool) {
	p := x.p
	if x.code != p.E.Success {
		return
	}
	tag, t0 := x.tag+round, p.collNow()
	var r *Request
	if from >= 0 {
		r = x.post(from, round)
	}
	if to >= 0 && !x.send(to, tag, send) || r == nil || !x.wait(r, recv, fold) {
		return
	}
	name, peer := "coll-recv", from
	if to >= 0 {
		name, peer = "coll-exchange", to
	}
	p.collRound(name, t0, x.abs(peer), tag)
}

// post posts a round's raw receive from a peer. Only step, and the two
// algorithms that post every receive before their first wait, call it:
// no failure can precede it.
func (x *collExec) post(from int, round int32) *Request {
	return x.p.postRaw(x.c, x.abs(from), x.tag+round, false)
}

// isend starts a send to a peer on tag: a pending rendezvous request,
// or nil for an eager send. data stays the algorithm's, which may keep
// folding into it, so the fabric copies it (owned=false; Request.owned).
func (x *collExec) isend(to int, tag int32, data []byte) *Request {
	return x.p.sendInternal(data, x.c.Ranks[x.abs(to)], tag, x.c.CID|collCIDBit, false)
}

// send is isend that blocks until the fabric has the payload. A dead
// peer fails the call with ErrProcFailed instead of silently dropping a
// round on the floor (the hang ULFM's detection replaces).
func (x *collExec) send(to int, tag int32, data []byte) bool {
	p, peer := x.p, x.abs(to)
	if p.ft.Failed(x.c.Ranks[peer]) {
		return x.fail(p.E.ErrProcFailed)
	}
	t0 := p.collNow()
	if r := x.isend(to, tag, data); r != nil && !x.wait(r, nil, false) {
		return false
	}
	p.collRound("coll-send", t0, peer, tag)
	return true
}

// wait blocks until r is done and recycles it, first consuming a
// receive's payload: copied into dst (as much as fits), or folded into
// dst when fold is set. Every collective receive goes through it, so no
// algorithm ever holds a pooled slice: the payload is back on the
// world's freelist before the algorithm sees the result.
func (x *collExec) wait(r *Request, dst []byte, fold bool) bool {
	p := x.p
	if !x.progress(r) {
		return false
	}
	code := r.code
	if r.kind == reqRecv {
		switch {
		case code != p.E.Success:
		case fold:
			code = p.Fold(x.o, x.k, dst, r.rawOut)
		default:
			copy(dst, r.rawOut)
		}
		p.ep.Release(r.rawOut)
	}
	p.putReq(r)
	if code != p.E.Success {
		return x.fail(code)
	}
	return true
}

// progress drives the engine until r is done; after a failure it does
// nothing and reports false.
func (x *collExec) progress(r *Request) bool {
	for x.code == x.p.E.Success && !r.done {
		if code := x.p.Progress(true); code != x.p.E.Success {
			x.fail(code)
		}
	}
	return x.code == x.p.E.Success
}

// fail records the call's first failure. A rendezvous send the call
// started may still wait for its CTS, and its payload may be the caller's
// buffer, which the caller is free to change once the call returns, or
// scratch the algorithm goes on writing. Each such send gets a private
// copy from the freelist, owned by the send, so a late CTS ships the
// bytes as they were sent.
func (x *collExec) fail(code int) bool {
	x.code = code
	for seq, s := range x.p.pendingSend {
		if seq > x.since && !s.owned {
			b := x.p.ep.Alloc(len(s.payload))
			copy(b, s.payload)
			s.payload, s.owned = b, true
		}
	}
	return false
}

// release returns the call's scratch to the freelist on success. After
// a failure it is left to the garbage collector, like the wrappers'.
func (x *collExec) release(bufs ...[]byte) {
	for _, b := range bufs {
		if x.code == x.p.E.Success {
			x.p.ep.Release(b)
		}
	}
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

// collArgs is the argument prologue of Bcast, Gather and Scatter: the
// communicator and dt, the root, then every count.
func (p *Proc) collArgs(c *Comm, dt *Type, root int, counts ...int) int {
	code := p.checkCommType(c, dt)
	switch {
	case code != p.E.Success:
	case root < 0 || root >= c.Size():
		code = p.E.ErrRoot
	case slices.Min(counts) < 0:
		code = p.E.ErrCount
	}
	return code
}

// reduceArgs is the argument prologue of Reduce and Allreduce, which
// passes root 0 (every communicator has it): the communicator and dt, the
// operator, the root, the count, then the kind the operator folds.
func (p *Proc) reduceArgs(c *Comm, dt *Type, o *Op, root, count int) (types.Kind, int) {
	code := p.checkCommType(c, dt)
	switch {
	case code != p.E.Success:
	case o == nil:
		code = p.E.ErrOp
	case root < 0 || root >= c.Size():
		code = p.E.ErrRoot
	case count < 0:
		code = p.E.ErrCount
	}
	if code != p.E.Success {
		return types.KindInvalid, code
	}
	k, code := p.ReduceKind(dt)
	if code == p.E.Success && !OpDefined(o, k) {
		code = p.E.ErrOp
	}
	return k, code
}

// checkBlocks checks the second datatype of a block collective (other),
// both counts, and that a block holds the same bytes on either side.
func (p *Proc) checkBlocks(dt *Type, count int, other *Type, ocount int) int {
	switch {
	case other == nil || !other.T.Committed():
		return p.E.ErrType
	case count < 0 || ocount < 0:
		return p.E.ErrCount
	case ocount*other.T.Size() != count*dt.T.Size():
		return p.E.ErrTruncate
	}
	return p.E.Success
}

// packBlocks packs n blocks of count dt elements, count extents apart in
// buf, into the dense blocks of packed. A zero count cannot fail.
func (p *Proc) packBlocks(dt *Type, count int, buf, packed []byte, n int) int {
	bs := count * dt.T.Size()
	for r := 0; r < n; r++ {
		if _, err := dt.T.Pack(buf[r*count*dt.T.Extent():], count, packed[r*bs:(r+1)*bs]); err != nil && count > 0 {
			return p.E.ErrBuffer
		}
	}
	return p.E.Success
}

// unstage ends a staged call whose policy succeeded. If unpack is set it
// unpacks, the inverse of packBlocks, the n dense blocks of packed out to
// buf; then it returns the staging buffers to the freelist. After an
// unpack error they are left to the garbage collector. dt is read only
// when unpack is set: a non-root Gather's receive type may be nil.
func (p *Proc) unstage(unpack bool, dt *Type, count int, packed, buf []byte, n int, staged ...[]byte) int {
	for r := 0; unpack && r < n; r++ {
		bs := count * dt.T.Size()
		if _, err := dt.T.Unpack(packed[r*bs:(r+1)*bs], count, buf[r*count*dt.T.Extent():]); err != nil {
			return p.E.ErrBuffer
		}
	}
	for _, b := range staged {
		p.ep.Release(b)
	}
	return p.E.Success
}

// Barrier blocks until every member of c has entered it.
func (p *Proc) Barrier(c *Comm) int {
	if code := p.checkComm(c); code != p.E.Success {
		return code
	}
	if c.Size() == 1 {
		return p.E.Success
	}
	tag := p.NextCollTag(c)
	return p.pol.Barrier(p, c, tag)
}

// Bcast broadcasts count elements of dt from root.
func (p *Proc) Bcast(buf []byte, count int, dt *Type, root int, c *Comm) int {
	if code := p.collArgs(c, dt, root, count); code != p.E.Success {
		return code
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
	if code := p.pol.Bcast(p, c, packed, root, tag); code != p.E.Success || direct {
		return code
	}
	return p.unstage(me != root, dt, count, packed, buf, 1, packed)
}

// Reduce folds every rank's contribution into recvbuf at root.
func (p *Proc) Reduce(sendbuf, recvbuf []byte, count int, dt *Type, o *Op, root int, c *Comm) int {
	k, code := p.reduceArgs(c, dt, o, root, count)
	if code != p.E.Success {
		return code
	}
	acc, code := p.PackElems(dt, sendbuf, count)
	if code != p.E.Success {
		return code
	}
	tag := p.NextCollTag(c)
	if code := p.pol.Reduce(p, c, acc, o, k, root, tag); code != p.E.Success {
		return code
	}
	return p.unstage(c.MyPos == root && count > 0, dt, count, acc, recvbuf, 1, acc)
}

// Allreduce folds every rank's contribution into recvbuf on every rank.
func (p *Proc) Allreduce(sendbuf, recvbuf []byte, count int, dt *Type, o *Op, c *Comm) int {
	k, code := p.reduceArgs(c, dt, o, 0, count)
	if code != p.E.Success {
		return code
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
	if c.Size() > 1 && len(acc) > 0 {
		if code := p.pol.Allreduce(p, c, acc, o, k, tag); code != p.E.Success {
			return code
		}
	}
	if direct {
		return p.E.Success
	}
	return p.unstage(count > 0, dt, count, acc, recvbuf, 1, acc)
}

// Gather collects every rank's scount elements at root.
func (p *Proc) Gather(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, root int, c *Comm) int {
	if code := p.collArgs(c, stype, root, scount, rcount); code != p.E.Success {
		return code
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
		if code := p.checkBlocks(stype, scount, rtype, rcount); code != p.E.Success {
			return code
		}
		region = p.ep.Alloc(n * blockSz)
	}
	if code := p.pol.Gather(p, c, own, region, blockSz, root, tag); code != p.E.Success {
		return code
	}
	return p.unstage(me == root && blockSz > 0, rtype, rcount, region, recvbuf, n, own, region)
}

// Scatter distributes root's n blocks of scount elements.
func (p *Proc) Scatter(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, root int, c *Comm) int {
	if code := p.collArgs(c, rtype, root, scount, rcount); code != p.E.Success {
		return code
	}
	n, me := c.Size(), c.MyPos
	blockSz := rcount * rtype.T.Size()
	// Tag reservation precedes the root-only validation; see Gather.
	tag := p.NextCollTag(c)
	var region []byte
	if me == root {
		if code := p.checkBlocks(rtype, rcount, stype, scount); code != p.E.Success {
			return code
		}
		region = p.ep.Alloc(n * blockSz)
		if code := p.packBlocks(stype, scount, sendbuf, region, n); code != p.E.Success {
			return code
		}
	}
	own := p.ep.Alloc(blockSz)
	if code := p.pol.Scatter(p, c, region, own, blockSz, root, tag); code != p.E.Success {
		return code
	}
	return p.unstage(blockSz > 0, rtype, rcount, own, recvbuf, 1, own, region)
}

// Allgather collects every rank's block on every rank.
func (p *Proc) Allgather(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, c *Comm) int {
	if code := p.checkCommType(c, stype); code != p.E.Success {
		return code
	}
	if code := p.checkBlocks(stype, scount, rtype, rcount); code != p.E.Success {
		return code
	}
	n, me := c.Size(), c.MyPos
	blockSz := scount * stype.T.Size()
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
			if code := p.packBlocks(stype, scount, sendbuf, region[me*blockSz:(me+1)*blockSz], 1); code != p.E.Success {
				return code
			}
		}
	}
	tag := p.NextCollTag(c)
	if n > 1 && blockSz > 0 {
		if code := p.pol.Allgather(p, c, region, blockSz, tag); code != p.E.Success {
			return code
		}
	}
	if direct {
		return p.E.Success
	}
	return p.unstage(blockSz > 0, rtype, rcount, region, recvbuf, n, region)
}

// Alltoall exchanges distinct blocks between every pair of ranks.
func (p *Proc) Alltoall(sendbuf []byte, scount int, stype *Type,
	recvbuf []byte, rcount int, rtype *Type, c *Comm) int {
	if code := p.checkCommType(c, stype); code != p.E.Success {
		return code
	}
	if code := p.checkBlocks(stype, scount, rtype, rcount); code != p.E.Success {
		return code
	}
	n := c.Size()
	blockSz := scount * stype.T.Size()
	var out, in []byte
	direct := inCallerBufs(sendbuf, n*blockSz, stype, recvbuf, n*blockSz, rtype)
	if direct {
		out, in = sendbuf[:n*blockSz], recvbuf[:n*blockSz]
	} else {
		out = p.ep.Alloc(n * blockSz)
		if code := p.packBlocks(stype, scount, sendbuf, out, n); code != p.E.Success {
			return code
		}
		in = p.ep.Alloc(n * blockSz)
	}
	tag := p.NextCollTag(c)
	if n == 1 || blockSz == 0 {
		copy(in, out)
	} else if code := p.pol.Alltoall(p, c, out, in, blockSz, tag); code != p.E.Success {
		return code
	}
	if direct {
		return p.E.Success
	}
	return p.unstage(true, rtype, rcount, in, recvbuf, n, out, in)
}

// ---------------------------------------------------------------------------
// The algorithm set. Each implementation's Policy composes these with its
// own thresholds.
// ---------------------------------------------------------------------------

// chunks splits a length into n nearly-equal pieces: the first rem get
// one unit more than the rest. Piece i spans [off(i), off(i+1)).
type chunks struct{ base, rem int }

func chunksOf(length, n int) chunks { return chunks{length / n, length % n} }

func (ck chunks) off(i int) int { return i*ck.base + min(i, ck.rem) }

// rotate copies the n bs-byte blocks of src into dst, block i to block
// (i+by) mod n.
func rotate(dst, src []byte, by, n, bs int) {
	copy(dst[by*bs:n*bs], src[:(n-by)*bs])
	copy(dst[:by*bs], src[(n-by)*bs:n*bs])
}

// parentMask is the bit that links relative rank me to its binomial-tree
// parent, me-mask; for the root (me 0) it is the first power of two not
// below n.
func parentMask(me, n int) int {
	mask := 1
	for mask < n && me&mask == 0 {
		mask <<= 1
	}
	return mask
}

// BarrierDissemination is MPICH's dissemination barrier: ceil(log2 n)
// rounds of token exchanges at power-of-two distances.
func (p *Proc) BarrierDissemination(c *Comm, tag int32) int {
	x := p.coll("BarrierDissemination", c, 0, tag)
	n, me := x.n, x.me
	round := int32(0)
	for mask := 1; mask < n; mask <<= 1 {
		x.step((me+mask)%n, (me-mask+n)%n, round, nil, nil, false)
		round++
	}
	return x.end()
}

// BarrierRDFold is the tuned recursive-doubling barrier with a fold for
// non-power-of-two sizes (Open MPI's default for mid-size communicators):
// AllreduceRecDoubling's pattern with nothing to reduce.
func (p *Proc) BarrierRDFold(c *Comm, tag int32) int {
	x := p.coll("BarrierRDFold", c, 0, tag)
	recDoubling(&x, nil, 63)
	return x.end()
}

// BcastBinomial is the binomial-tree broadcast over relative ranks.
func (p *Proc) BcastBinomial(c *Comm, packed []byte, root int, tag int32) int {
	x := p.coll("BcastBinomial", c, root, tag)
	n, me := x.n, x.me
	mask := parentMask(me, n)
	if mask < n {
		x.step(-1, me-mask, 0, nil, packed, false)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if me+mask < n {
			x.step(me+mask, -1, 0, packed, nil, false)
		}
	}
	return x.end()
}

// BcastScatterRing scatters the buffer binomially over relative ranks and
// reassembles with a ring allgather, MPICH's long-message broadcast.
func (p *Proc) BcastScatterRing(c *Comm, packed []byte, root int, tag int32) int {
	x := p.coll("BcastScatterRing", c, root, tag)
	n, me := x.n, x.me
	ck := chunksOf(len(packed), n)

	// Binomial scatter: the holder of relative range [me, me+mask) hands
	// the upper half to its child.
	mask := parentMask(me, n)
	if mask < n {
		x.step(-1, me-mask, 0, nil, packed[ck.off(me):], false)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := me + mask; child < n {
			x.step(child, -1, 0, packed[ck.off(child):ck.off(min(child+mask, n))], nil, false)
		}
	}

	// Ring allgather of the n chunks over relative ranks. The root
	// already holds every chunk and discards what it receives: its packed
	// is an input (see Policy).
	for s := 0; s < n-1; s++ {
		sendChunk := (me - s + n) % n
		recvChunk := (me - s - 1 + n) % n
		var dst []byte
		if me != 0 {
			dst = packed[ck.off(recvChunk):ck.off(recvChunk+1)]
		}
		x.step((me+1)%n, (me-1+n)%n, 1, packed[ck.off(sendChunk):ck.off(sendChunk+1)], dst, false)
	}
	return x.end()
}

// BcastBinaryTree broadcasts down an in-order binary tree over relative
// ranks: children of relative node r are 2r+1 and 2r+2.
func (p *Proc) BcastBinaryTree(c *Comm, packed []byte, root int, tag int32) int {
	x := p.coll("BcastBinaryTree", c, root, tag)
	n, me := x.n, x.me
	if me != 0 {
		x.step(-1, (me-1)/2, 0, nil, packed, false)
	}
	for child := 2*me + 1; child <= 2*me+2 && child < n; child++ {
		x.step(child, -1, 0, packed, nil, false)
	}
	return x.end()
}

// BcastChain pipelines segSize segments down the rank chain
// root -> root+1 -> ... -> root+n-1 (relative order).
func (p *Proc) BcastChain(c *Comm, packed []byte, root int, tag int32, segSize int) int {
	x := p.coll("BcastChain", c, root, tag)
	n, me := x.n, x.me
	for lo := 0; lo < len(packed); lo += segSize {
		seg := packed[lo:min(lo+segSize, len(packed))]
		if me != 0 {
			x.step(-1, me-1, 0, nil, seg, false)
		}
		if me != n-1 {
			x.step(me+1, -1, 0, seg, nil, false)
		}
	}
	return x.end()
}

// ReduceBinomial folds up a binomial tree over relative ranks
// (commutative operators), MPICH's selection.
func (p *Proc) ReduceBinomial(c *Comm, acc []byte, o *Op, k types.Kind, root int, tag int32) int {
	x := p.coll("ReduceBinomial", c, root, tag)
	x.o, x.k = o, k
	n, me := x.n, x.me
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			x.step(me-mask, -1, 0, acc, nil, false)
			break
		}
		if child := me | mask; child < n {
			x.step(-1, child, 0, nil, acc, true)
		}
	}
	return x.end()
}

// ReduceBinaryTree folds up an in-order binary tree over relative ranks,
// Open MPI's selection.
func (p *Proc) ReduceBinaryTree(c *Comm, acc []byte, o *Op, k types.Kind, root int, tag int32) int {
	x := p.coll("ReduceBinaryTree", c, root, tag)
	x.o, x.k = o, k
	n, me := x.n, x.me
	for child := 2*me + 1; child <= 2*me+2 && child < n; child++ {
		x.step(-1, child, 0, nil, acc, true)
	}
	if me != 0 {
		x.step((me-1)/2, -1, 0, acc, nil, false)
	}
	return x.end()
}

// AllreduceRecDoubling handles any communicator size by folding the
// non-power-of-two remainder into the nearest power of two first.
// unfoldRound is the tag round of the final unfold exchange (the two
// historical implementations use different rounds; the difference is
// preserved so wire traces stay stable).
func (p *Proc) AllreduceRecDoubling(c *Comm, acc []byte, o *Op, k types.Kind, tag int32, unfoldRound int32) int {
	x := p.coll("AllreduceRecDoubling", c, 0, tag)
	x.o, x.k = o, k
	recDoubling(&x, acc, unfoldRound)
	return x.end()
}

// recDoubling is recursive doubling over any communicator size, folding
// into acc when the call has an operator (a barrier's acc is nil). The
// remainder over the nearest power of two folds in first: each even rank
// below 2*rem hands its acc to its odd neighbour at round 0 and sits out.
// The power of two then exchanges at rounds 1, 2, ..., and each odd
// rank below 2*rem returns the result at round unfold.
func recDoubling(x *collExec, acc []byte, unfold int32) {
	n, me, fold := x.n, x.me, x.o != nil
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newrank := me - rem
	if me < 2*rem {
		if me%2 == 0 {
			x.step(me+1, -1, 0, acc, nil, false)
			newrank = -1
		} else {
			x.step(-1, me-1, 0, nil, acc, fold)
			newrank = me / 2
		}
	}
	round := int32(1)
	for mask := 1; newrank >= 0 && mask < pof2; mask <<= 1 {
		pn := newrank ^ mask
		partner := pn + rem
		if pn < rem {
			partner = pn*2 + 1
		}
		x.step(partner, partner, round, acc, acc, fold)
		round++
	}
	if me < 2*rem {
		if me%2 != 0 {
			x.step(me-1, -1, unfold, acc, nil, false)
		} else {
			x.step(-1, me+1, unfold, nil, acc, false)
		}
	}
}

// AllreduceRabenseifner is the long-message reduce-scatter plus allgather
// algorithm for power-of-two communicators (MPICH's selection).
func (p *Proc) AllreduceRabenseifner(c *Comm, acc []byte, o *Op, k types.Kind, tag int32) int {
	x := p.coll("AllreduceRabenseifner", c, 0, tag)
	x.o, x.k = o, k
	n, me := x.n, x.me
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
		keep, give := span{cur.lo, mid}, span{mid, cur.hi}
		if me > partner {
			keep, give = give, keep
		}
		x.step(partner, partner, round, acc[give.lo*es:give.hi*es], acc[keep.lo*es:keep.hi*es], true)
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
		x.step(partner, partner, round, acc[cur.lo*es:cur.hi*es], other, false)
		cur = parent
		round++
	}
	return x.end()
}

// AllreduceRing is the bandwidth-optimal ring: n-1 reduce-scatter steps
// followed by n-1 allgather steps over element chunks (Open MPI's
// long-message selection).
func (p *Proc) AllreduceRing(c *Comm, acc []byte, o *Op, k types.Kind, tag int32) int {
	x := p.coll("AllreduceRing", c, 0, tag)
	x.o, x.k = o, k
	n, me := x.n, x.me
	es := k.Size()
	ck := chunksOf(len(acc)/es, n)
	right, left := (me+1)%n, (me-1+n)%n
	chunk := func(i int) []byte { return acc[ck.off(i)*es : ck.off(i+1)*es] }
	// Reduce-scatter ring, then the allgather ring one chunk behind.
	for s := 0; s < n-1; s++ {
		x.step(right, left, 0, chunk((me-s+n)%n), chunk((me-s-1+n)%n), true)
	}
	for s := 0; s < n-1; s++ {
		x.step(right, left, 1, chunk((me+1-s+n)%n), chunk((me-s+n)%n), false)
	}
	return x.end()
}

// GatherBinomial aggregates subtree block ranges up a binomial tree over
// relative ranks (MPICH's selection), rotating into absolute order at the
// root.
func (p *Proc) GatherBinomial(c *Comm, own, region []byte, blockSz, root int, tag int32) int {
	x := p.coll("GatherBinomial", c, root, tag)
	n, me := x.n, x.me
	// work[:span*blockSz] is written before it is sent or unscrambled:
	// own first, then each child's subtree range appended behind it.
	work := p.ep.Alloc(n * blockSz)
	copy(work[:blockSz], own)
	span := 1
	mask := 1
	for ; mask < n && me&mask == 0; mask <<= 1 {
		if child := me + mask; child < n {
			childSpan := min(mask, n-child)
			x.step(-1, child, 0, nil, work[span*blockSz:(span+childSpan)*blockSz], false)
			span += childSpan
		}
	}
	if mask < n {
		x.step(me-mask, -1, 0, work[:span*blockSz], nil, false)
	} else { // the root: work holds every block, in relative order
		rotate(region, work, root, n, blockSz)
	}
	x.release(work)
	return x.end()
}

// GatherLinear is the basic linear gather with nonblocking overlap: the
// root posts every receive, then drains (Open MPI's selection).
func (p *Proc) GatherLinear(c *Comm, own, region []byte, blockSz, root int, tag int32) int {
	x := p.coll("GatherLinear", c, 0, tag) // absolute ranks
	n, me := x.n, x.me
	if me != root {
		x.step(root, -1, 0, own, nil, false)
		return x.end()
	}
	reqs := p.collReqs(n)
	for r := 0; r < n; r++ {
		if r != me {
			reqs[r] = x.post(r, 0)
		}
	}
	copy(region[me*blockSz:(me+1)*blockSz], own)
	for r := 0; r < n; r++ {
		if r != me {
			x.wait(reqs[r], region[r*blockSz:(r+1)*blockSz], false)
		}
	}
	return x.end()
}

// ScatterBinomial distributes region down a binomial tree over relative
// ranks (MPICH's selection), filling own with the caller's block.
func (p *Proc) ScatterBinomial(c *Comm, region, own []byte, blockSz, root int, tag int32) int {
	x := p.coll("ScatterBinomial", c, root, tag)
	n, me := x.n, x.me
	// Only the caller's subtree range of work is ever read, and it is
	// written first: by the rotation at the root, by the receive elsewhere.
	work := p.ep.Alloc(n * blockSz)
	if me == 0 {
		rotate(work, region, (n-root)%n, n, blockSz)
	}
	mask := parentMask(me, n)
	if mask < n {
		x.step(-1, me-mask, 0, nil, work[me*blockSz:min(me+mask, n)*blockSz], false)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := me + mask; child < n {
			x.step(child, -1, 0, work[child*blockSz:min(child+mask, n)*blockSz], nil, false)
		}
	}
	copy(own, work[me*blockSz:(me+1)*blockSz])
	x.release(work)
	return x.end()
}

// ScatterLinear is the basic linear scatter: the root sends each block
// (Open MPI's selection).
func (p *Proc) ScatterLinear(c *Comm, region, own []byte, blockSz, root int, tag int32) int {
	x := p.coll("ScatterLinear", c, 0, tag) // absolute ranks
	n, me := x.n, x.me
	if me != root {
		x.step(-1, root, 0, nil, own, false)
		return x.end()
	}
	for r := 0; r < n; r++ {
		if r != me {
			x.step(r, -1, 0, region[r*blockSz:(r+1)*blockSz], nil, false)
		}
	}
	copy(own, region[me*blockSz:(me+1)*blockSz])
	return x.end()
}

// AllgatherRecDoubling doubles the known block range each round
// (power-of-two communicators; MPICH's short-message selection).
func (p *Proc) AllgatherRecDoubling(c *Comm, region []byte, blockSz int, tag int32) int {
	x := p.coll("AllgatherRecDoubling", c, 0, tag)
	n, me := x.n, x.me
	round := int32(0)
	for dist := 1; dist < n; dist *= 2 {
		partner := me ^ dist
		myLo, partnerLo := me&^(dist-1), partner&^(dist-1)
		x.step(partner, partner, round,
			region[myLo*blockSz:(myLo+dist)*blockSz], region[partnerLo*blockSz:(partnerLo+dist)*blockSz], false)
		round++
	}
	return x.end()
}

// AllgatherRing rotates blocks around the ring for n-1 steps (the
// long-message workhorse both historical implementations share).
func (p *Proc) AllgatherRing(c *Comm, region []byte, blockSz int, tag int32) int {
	x := p.coll("AllgatherRing", c, 0, tag)
	n, me := x.n, x.me
	for s := 0; s < n-1; s++ {
		sendBlock, recvBlock := (me-s+n)%n, (me-s-1+n)%n
		x.step((me+1)%n, (me-1+n)%n, 0,
			region[sendBlock*blockSz:(sendBlock+1)*blockSz], region[recvBlock*blockSz:(recvBlock+1)*blockSz], false)
	}
	return x.end()
}

// AllgatherBruck doubles the known prefix each round; block j of the
// working buffer holds rank (me+j)'s contribution until the final rotate
// (Open MPI's small-block selection).
func (p *Proc) AllgatherBruck(c *Comm, region []byte, blockSz int, tag int32) int {
	x := p.coll("AllgatherBruck", c, 0, tag)
	n, me := x.n, x.me
	// tmp fills front to back: own block, then each round's transfer.
	tmp := p.ep.Alloc(n * blockSz)
	copy(tmp[:blockSz], region[me*blockSz:(me+1)*blockSz])
	round := int32(0)
	for cnt := 1; cnt < n; cnt *= 2 {
		transfer := min(cnt, n-cnt)
		x.step((me-cnt+n)%n, (me+cnt)%n, round,
			tmp[:transfer*blockSz], tmp[cnt*blockSz:(cnt+transfer)*blockSz], false)
		round++
	}
	rotate(region, tmp, me, n, blockSz)
	x.release(tmp)
	return x.end()
}

// AlltoallBruck runs in ceil(log2 n) rounds, each moving all blocks whose
// (rotated) index has the round's bit set.
func (p *Proc) AlltoallBruck(c *Comm, out, in []byte, blockSz int, tag int32) int {
	x := p.coll("AlltoallBruck", c, 0, tag)
	n, me := x.n, x.me
	// Phase 1: local rotation; tmp[i] = block destined to (me+i) mod n.
	tmp := p.ep.Alloc(n * blockSz)
	rotate(tmp, out, (n-me)%n, n, blockSz)
	// Each round gathers the blocks whose index has the round's bit set
	// into the front of sendbuf, exchanges them, and scatters what came
	// back from recvbuf into the same slots.
	half := (n + 1) / 2 * blockSz // no bit is set in more than half of 0..n-1, rounded up
	sendbuf, recvbuf := p.ep.Alloc(half), p.ep.Alloc(half)
	round := int32(0)
	for pow := 1; pow < n; pow <<= 1 {
		nb := 0
		for i := pow; i < n; i++ {
			if i&pow != 0 {
				copy(sendbuf[nb*blockSz:], tmp[i*blockSz:(i+1)*blockSz])
				nb++
			}
		}
		x.step((me+pow)%n, (me-pow+n)%n, round, sendbuf[:nb*blockSz], recvbuf[:nb*blockSz], false)
		nb = 0
		for i := pow; i < n; i++ {
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
	x.release(tmp, sendbuf, recvbuf)
	return x.end()
}

// AlltoallOverlap posts every receive, starts every send nonblocking,
// then drains — maximal overlap across peers (MPICH's medium-message and
// Open MPI's basic-linear algorithm). A peer already known dead gets no
// send, as in collExec.send: nothing would take it, and a rendezvous send
// would wait for a clear-to-send that never comes. The receive from that
// peer still delivers what it sent before it died, or fails the call.
func (p *Proc) AlltoallOverlap(c *Comm, out, in []byte, blockSz int, tag int32) int {
	x := p.coll("AlltoallOverlap", c, 0, tag)
	n, me := x.n, x.me
	copy(in[me*blockSz:(me+1)*blockSz], out[me*blockSz:(me+1)*blockSz])
	// reqs[i] and reqs[n+i] are the receive from and the send to the peer
	// at offset i; eager sends, and sends to the dead, leave their slot
	// nil.
	reqs := p.collReqs(2 * n)
	for i := 1; i < n; i++ {
		reqs[i] = x.post((me-i+n)%n, 0)
	}
	for i := 1; i < n; i++ {
		if to := (me + i) % n; !p.ft.Failed(c.Ranks[to]) {
			reqs[n+i] = x.isend(to, x.tag, out[to*blockSz:(to+1)*blockSz])
		}
	}
	for i := 1; i < n; i++ {
		from := (me - i + n) % n
		x.wait(reqs[i], in[from*blockSz:(from+1)*blockSz], false)
	}
	for _, s := range reqs[n+1:] {
		if s != nil && x.progress(s) {
			p.putReq(s)
		}
	}
	return x.end()
}

// AlltoallPairwise exchanges with peers at increasing offsets; step k
// pairs rank r with r+k (send) and r-k (recv). MPICH's long-message
// selection.
func (p *Proc) AlltoallPairwise(c *Comm, out, in []byte, blockSz int, tag int32) int {
	x := p.coll("AlltoallPairwise", c, 0, tag)
	n, me := x.n, x.me
	copy(in[me*blockSz:(me+1)*blockSz], out[me*blockSz:(me+1)*blockSz])
	for k := 1; k < n; k++ {
		to, from := (me+k)%n, (me-k+n)%n
		x.step(to, from, 0, out[to*blockSz:(to+1)*blockSz], in[from*blockSz:(from+1)*blockSz], false)
	}
	return x.end()
}
