package mpicore

// The pack path as it stood before the wrappers learned to work in the
// caller's buffers: every datatype is packed into freelist scratch,
// reduced or exchanged there, and unpacked. TestCallerBufsMatchPackPath
// holds the wrappers to these bodies — same bytes, same codes, same
// virtual clocks — for the datatypes inCallerBufs lets through.

// PackedBcast is Bcast staged through scratch for every datatype.
func (p *Proc) PackedBcast(buf []byte, count int, dt *Type, root int, c *Comm) int {
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
	if me == root {
		var code int
		if packed, code = p.PackElems(dt, buf, count); code != p.E.Success {
			return code
		}
	} else {
		packed = p.ep.Alloc(nbytes)
	}
	if code := p.pol.Bcast(p, c, packed, root, tag); code != p.E.Success {
		return code
	}
	if me != root {
		if _, err := dt.T.Unpack(packed, count, buf); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(packed)
	return p.E.Success
}

// PackedAllreduce is Allreduce staged through scratch for every datatype.
func (p *Proc) PackedAllreduce(sendbuf, recvbuf []byte, count int, dt *Type, o *Op, c *Comm) int {
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
	acc, code := p.PackElems(dt, sendbuf, count)
	if code != p.E.Success {
		return code
	}
	tag := p.NextCollTag(c)
	if c.Size() > 1 && len(acc) > 0 {
		if code := p.pol.Allreduce(p, c, acc, o, k, tag); code != p.E.Success {
			return code
		}
	}
	if count > 0 {
		if _, err := dt.T.Unpack(acc, count, recvbuf); err != nil {
			return p.E.ErrBuffer
		}
	}
	p.ep.Release(acc)
	return p.E.Success
}

// PackedAllgather is Allgather staged through scratch for every datatype.
func (p *Proc) PackedAllgather(sendbuf []byte, scount int, stype *Type,
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
	region := p.ep.Alloc(n * blockSz)
	if blockSz > 0 {
		if _, err := stype.T.Pack(sendbuf, scount, region[me*blockSz:(me+1)*blockSz]); err != nil {
			return p.E.ErrBuffer
		}
	}
	tag := p.NextCollTag(c)
	if n > 1 && blockSz > 0 {
		if code := p.pol.Allgather(p, c, region, blockSz, tag); code != p.E.Success {
			return code
		}
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

// PackedAlltoall is Alltoall staged through scratch for every datatype.
func (p *Proc) PackedAlltoall(sendbuf []byte, scount int, stype *Type,
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
	out := p.ep.Alloc(n * blockSz)
	for d := 0; d < n; d++ {
		if _, err := stype.T.Pack(sendbuf[d*scount*stype.T.Extent():], scount,
			out[d*blockSz:(d+1)*blockSz]); err != nil && scount > 0 {
			return p.E.ErrBuffer
		}
	}
	in := p.ep.Alloc(n * blockSz)
	tag := p.NextCollTag(c)
	if n == 1 || blockSz == 0 {
		copy(in, out)
	} else if code := p.pol.Alltoall(p, c, out, in, blockSz, tag); code != p.E.Success {
		return code
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
