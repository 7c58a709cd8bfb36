package mpicore

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/ops"
	"repro/internal/types"
)

// Impl is one MPI implementation's ABI surface, written down as data: its
// constant and handle vocabulary, its error-code table and strings, its
// handle-minting scheme and its algorithm policy. It is everything in
// which MPICH, Open MPI and the standard-ABI implementation differ; the
// one Binding below supplies the rest. A new implementation is a package
// that fills in one Impl.
type Impl struct {
	// Name identifies the library (ImplName, and the attribution of its
	// errors); Version is its banner.
	Name    string
	Version string
	// Codes is the native error-code table the runtime answers in;
	// ClassOfCode is MPI_Error_class over it and ErrorString
	// MPI_Error_string.
	Codes       Codes
	ClassOfCode func(code int) abi.ErrClass
	ErrorString func(code int) string
	// Policy builds the algorithm personality.
	Policy func() Policy
	// Lookup and LookupInt resolve the predefined constants to native
	// values: what an application compiled against this implementation's
	// mpi.h holds. Init registers every predefined object under its
	// Lookup handle and derives the runtime's Consts from LookupInt.
	Lookup    func(abi.Sym) abi.Handle
	LookupInt func(abi.IntSym) int
	// NewMint returns one rank's handle allocator: each call yields a
	// fresh native handle of the given class.
	NewMint func() func(abi.Class) abi.Handle
}

// Consts is the integer-constant vocabulary LookupInt resolves.
func (im *Impl) Consts() Consts {
	return Consts{
		AnySource: im.LookupInt(abi.IntAnySource),
		AnyTag:    im.LookupInt(abi.IntAnyTag),
		ProcNull:  im.LookupInt(abi.IntProcNull),
		TagUB:     im.LookupInt(abi.IntTagUB),
		Undefined: im.LookupInt(abi.IntUndefined),
	}
}

// Binding is the native abi.FuncTable of every implementation: the
// analog of an application compiled against that implementation's own
// mpi.h. It keeps one map per object class from native handle to runtime
// object, mints a handle for each new object, and otherwise forwards.
// Handle resolution leans on the runtime's own argument checking: an
// unknown or null handle resolves to nil, and the runtime answers with
// the class's error code in the implementation's numbering. The only
// other work is wrapping int codes as errors — which is the paper's
// point: below the ABI surface, implementations are the same.
type Binding struct {
	im   *Impl
	p    *Proc
	mint func(abi.Class) abi.Handle

	comms  map[abi.Handle]*Comm
	groups map[abi.Handle]*Group
	types  map[abi.Handle]*Type
	ops    map[abi.Handle]*Op
	reqs   map[abi.Handle]*Request

	// null holds each class's null handle; groupEmpty is MPI_GROUP_EMPTY,
	// which every empty group result collapses to and no free removes.
	null       [abi.ClassRequest + 1]abi.Handle
	groupEmpty abi.Handle
}

var _ abi.FuncTable = (*Binding)(nil)

// Init attaches a fresh instance of the implementation to one rank of a
// world, the analog of MPI_Init, and returns its native binding.
func (im *Impl) Init(w *fabric.World, rank int) *Binding {
	p := NewProc(w, rank, im.Consts(), im.Codes, im.Policy())
	b := &Binding{
		im:         im,
		p:          p,
		mint:       im.NewMint(),
		comms:      make(map[abi.Handle]*Comm),
		groups:     make(map[abi.Handle]*Group),
		types:      make(map[abi.Handle]*Type),
		ops:        make(map[abi.Handle]*Op),
		reqs:       make(map[abi.Handle]*Request),
		groupEmpty: im.Lookup(abi.SymGroupEmpty),
	}
	b.null[abi.ClassComm] = im.Lookup(abi.SymCommNull)
	b.null[abi.ClassGroup] = im.Lookup(abi.SymGroupNull)
	b.null[abi.ClassType] = im.Lookup(abi.SymTypeNull)
	b.null[abi.ClassOp] = im.Lookup(abi.SymOpNull)
	b.null[abi.ClassRequest] = im.Lookup(abi.SymRequestNull)
	b.comms[im.Lookup(abi.SymCommWorld)] = p.CommWorld
	b.comms[im.Lookup(abi.SymCommSelf)] = p.CommSelf
	b.groups[b.groupEmpty] = &Group{MyPos: -1}
	for _, k := range types.Kinds() {
		b.types[im.Lookup(abi.SymForKind(k))] = p.Predef(k)
	}
	for _, op := range ops.Ops() {
		b.ops[im.Lookup(abi.SymForOp(op))] = p.PredefOp(op)
	}
	return b
}

// Finalize releases the instance. Outstanding requests are abandoned.
func (b *Binding) Finalize() { b.p.Finalize() }

func (b *Binding) String() string {
	posted, unexpected, pendingSend, awaiting := b.p.Depths()
	return fmt.Sprintf("%s rank %d: posted=%d unexpected=%d pendingSend=%d awaiting=%d reqs=%d",
		b.im.Name, b.p.Rank(), posted, unexpected, pendingSend, awaiting, len(b.reqs))
}

// err converts a native code into an error value carrying its standard
// class.
func (b *Binding) err(code int) error {
	if code == b.p.E.Success {
		return nil
	}
	return abi.Errorf(b.im.ClassOfCode(code), b.im.Name, "%s", b.im.ErrorString(code))
}

// Handle resolution: unknown and null handles resolve to nil.
func (b *Binding) c(h abi.Handle) *Comm  { return b.comms[h] }
func (b *Binding) t(h abi.Handle) *Type  { return b.types[h] }
func (b *Binding) g(h abi.Handle) *Group { return b.groups[h] }
func (b *Binding) o(h abi.Handle) *Op    { return b.ops[h] }

// status copies the runtime's status into the standard layout: every
// implementation's status carries the same fields, and Error already
// holds the native code.
func status(cs *Status) abi.Status {
	return abi.Status{
		Source: cs.Source, Tag: cs.Tag, Error: cs.Error,
		CountBytes: cs.CountBytes, Cancelled: cs.Cancelled,
	}
}

// ImplName identifies the library.
func (b *Binding) ImplName() string { return b.im.Name }

// Lookup resolves predefined object constants to native handles.
func (b *Binding) Lookup(s abi.Sym) abi.Handle { return b.im.Lookup(s) }

// LookupInt resolves integer constants to native values.
func (b *Binding) LookupInt(s abi.IntSym) int { return b.im.LookupInt(s) }

func (b *Binding) Send(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) error {
	return b.err(b.p.Send(buf, count, b.t(dtype), dest, tag, b.c(comm)))
}

func (b *Binding) Recv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle, st *abi.Status) error {
	var cs Status
	code := b.p.Recv(buf, count, b.t(dtype), source, tag, b.c(comm), &cs)
	if st != nil {
		*st = status(&cs)
	}
	return b.err(code)
}

// newReq registers a runtime request under a fresh handle.
func (b *Binding) newReq(r *Request, code int) (abi.Handle, error) {
	if code != b.p.E.Success {
		return b.null[abi.ClassRequest], b.err(code)
	}
	h := b.mint(abi.ClassRequest)
	b.reqs[h] = r
	return h, nil
}

func (b *Binding) Isend(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) (abi.Handle, error) {
	return b.newReq(b.p.Isend(buf, count, b.t(dtype), dest, tag, b.c(comm)))
}

func (b *Binding) Irecv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle) (abi.Handle, error) {
	return b.newReq(b.p.Irecv(buf, count, b.t(dtype), source, tag, b.c(comm)))
}

// Wait completes a request and frees its handle. A request whose progress
// failed stays live under its handle; one never issued, or already
// freed, is MPI_ERR_REQUEST.
func (b *Binding) Wait(req abi.Handle, st *abi.Status) error {
	if req == b.null[abi.ClassRequest] {
		b.procNull(st)
		return nil
	}
	r, ok := b.reqs[req]
	if !ok {
		return b.err(b.p.E.ErrRequest)
	}
	var cs Status
	code := b.p.Wait(r, &cs)
	if !r.Done() {
		return b.err(code)
	}
	delete(b.reqs, req)
	if st != nil {
		*st = status(&cs)
	}
	return b.err(code)
}

func (b *Binding) Test(req abi.Handle, st *abi.Status) (bool, error) {
	if req == b.null[abi.ClassRequest] {
		b.procNull(st)
		return true, nil
	}
	r, ok := b.reqs[req]
	if !ok {
		return false, b.err(b.p.E.ErrRequest)
	}
	var cs Status
	done, code := b.p.Test(r, &cs)
	if !done {
		return false, b.err(code)
	}
	delete(b.reqs, req)
	if st != nil {
		*st = status(&cs)
	}
	return true, b.err(code)
}

func (b *Binding) Waitall(reqs []abi.Handle, sts []abi.Status) error {
	if sts != nil && len(sts) != len(reqs) {
		return b.err(b.p.E.ErrArg)
	}
	var rc error
	for i, h := range reqs {
		var st abi.Status
		if err := b.Wait(h, &st); err != nil {
			rc = err
		}
		if sts != nil {
			sts[i] = st
		}
	}
	return rc
}

// Sendrecv is the runtime's composite; its receive never gets a handle.
func (b *Binding) Sendrecv(sendbuf []byte, scount int, stype abi.Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype abi.Handle, source, rtag int,
	comm abi.Handle, st *abi.Status) error {
	var cs Status
	code := b.p.Sendrecv(sendbuf, scount, b.t(stype), dest, stag,
		recvbuf, rcount, b.t(rtype), source, rtag, b.c(comm), &cs)
	if st != nil {
		*st = status(&cs)
	}
	return b.err(code)
}

func (b *Binding) procNull(st *abi.Status) {
	if st == nil {
		return
	}
	var cs Status
	b.p.ProcNullStatus(&cs)
	*st = status(&cs)
}

func (b *Binding) Probe(source, tag int, comm abi.Handle, st *abi.Status) error {
	var cs Status
	code := b.p.Probe(source, tag, b.c(comm), &cs)
	if code == b.p.E.Success && st != nil {
		*st = status(&cs)
	}
	return b.err(code)
}

func (b *Binding) Iprobe(source, tag int, comm abi.Handle, st *abi.Status) (bool, error) {
	var cs Status
	found, code := b.p.Iprobe(source, tag, b.c(comm), &cs)
	if found && st != nil {
		*st = status(&cs)
	}
	return found, b.err(code)
}

func (b *Binding) Barrier(comm abi.Handle) error {
	return b.err(b.p.Barrier(b.c(comm)))
}

func (b *Binding) Bcast(buf []byte, count int, dtype abi.Handle, root int, comm abi.Handle) error {
	return b.err(b.p.Bcast(buf, count, b.t(dtype), root, b.c(comm)))
}

func (b *Binding) Reduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, root int, comm abi.Handle) error {
	return b.err(b.p.Reduce(sendbuf, recvbuf, count, b.t(dtype), b.o(op), root, b.c(comm)))
}

func (b *Binding) Allreduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, comm abi.Handle) error {
	return b.err(b.p.Allreduce(sendbuf, recvbuf, count, b.t(dtype), b.o(op), b.c(comm)))
}

func (b *Binding) Gather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return b.err(b.p.Gather(sendbuf, scount, b.t(stype), recvbuf, rcount, b.t(rtype), root, b.c(comm)))
}

func (b *Binding) Allgather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return b.err(b.p.Allgather(sendbuf, scount, b.t(stype), recvbuf, rcount, b.t(rtype), b.c(comm)))
}

func (b *Binding) Scatter(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return b.err(b.p.Scatter(sendbuf, scount, b.t(stype), recvbuf, rcount, b.t(rtype), root, b.c(comm)))
}

func (b *Binding) Alltoall(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return b.err(b.p.Alltoall(sendbuf, scount, b.t(stype), recvbuf, rcount, b.t(rtype), b.c(comm)))
}

func (b *Binding) CommSize(comm abi.Handle) (int, error) {
	c := b.c(comm)
	if c == nil {
		return 0, b.err(b.p.E.ErrComm)
	}
	return c.Size(), nil
}

func (b *Binding) CommRank(comm abi.Handle) (int, error) {
	c := b.c(comm)
	if c == nil {
		return 0, b.err(b.p.E.ErrComm)
	}
	return c.MyPos, nil
}

// newComm registers a runtime-built communicator under a fresh handle;
// nil (the split/create non-member result) is MPI_COMM_NULL.
func (b *Binding) newComm(nc *Comm, code int) (abi.Handle, error) {
	if code != b.p.E.Success || nc == nil {
		return b.null[abi.ClassComm], b.err(code)
	}
	h := b.mint(abi.ClassComm)
	b.comms[h] = nc
	return h, nil
}

func (b *Binding) CommDup(comm abi.Handle) (abi.Handle, error) {
	return b.newComm(b.p.CommDup(b.c(comm)))
}

func (b *Binding) CommSplit(comm abi.Handle, color, key int) (abi.Handle, error) {
	return b.newComm(b.p.CommSplit(b.c(comm), color, key))
}

func (b *Binding) CommCreate(comm, group abi.Handle) (abi.Handle, error) {
	return b.newComm(b.p.CommCreate(b.c(comm), b.g(group)))
}

func (b *Binding) CommGroup(comm abi.Handle) (abi.Handle, error) {
	return b.newGroup(b.p.CommGroup(b.c(comm)))
}

// CommFree releases a communicator; the runtime refuses the predefined
// ones.
func (b *Binding) CommFree(comm abi.Handle) error {
	if code := b.p.CommFree(b.c(comm)); code != b.p.E.Success {
		return b.err(code)
	}
	delete(b.comms, comm)
	return nil
}

func (b *Binding) GroupSize(group abi.Handle) (int, error) {
	n, code := b.p.GroupSize(b.g(group))
	return n, b.err(code)
}

func (b *Binding) GroupRank(group abi.Handle) (int, error) {
	r, code := b.p.GroupRank(b.g(group))
	return r, b.err(code)
}

// newGroup registers a runtime-built group; an empty group is
// MPI_GROUP_EMPTY, as MPI requires.
func (b *Binding) newGroup(g *Group, code int) (abi.Handle, error) {
	if code != b.p.E.Success {
		return b.null[abi.ClassGroup], b.err(code)
	}
	if len(g.Ranks) == 0 {
		return b.groupEmpty, nil
	}
	h := b.mint(abi.ClassGroup)
	b.groups[h] = g
	return h, nil
}

func (b *Binding) GroupIncl(group abi.Handle, ranks []int) (abi.Handle, error) {
	return b.newGroup(b.p.GroupIncl(b.g(group), ranks))
}

func (b *Binding) GroupExcl(group abi.Handle, ranks []int) (abi.Handle, error) {
	return b.newGroup(b.p.GroupExcl(b.g(group), ranks))
}

func (b *Binding) GroupTranslateRanks(g1 abi.Handle, ranks []int, g2 abi.Handle) ([]int, error) {
	out, code := b.p.GroupTranslateRanks(b.g(g1), ranks, b.g(g2))
	return out, b.err(code)
}

// GroupFree releases a group; freeing MPI_GROUP_EMPTY is a no-op.
func (b *Binding) GroupFree(group abi.Handle) error {
	if group == b.groupEmpty {
		return nil
	}
	if _, ok := b.groups[group]; !ok {
		return b.err(b.p.E.ErrGroup)
	}
	delete(b.groups, group)
	return nil
}

// newType registers a runtime-built datatype under a fresh handle.
func (b *Binding) newType(t *Type, code int) (abi.Handle, error) {
	if code != b.p.E.Success {
		return b.null[abi.ClassType], b.err(code)
	}
	h := b.mint(abi.ClassType)
	b.types[h] = t
	return h, nil
}

func (b *Binding) TypeContiguous(count int, inner abi.Handle) (abi.Handle, error) {
	return b.newType(b.p.TypeContiguous(count, b.t(inner)))
}

func (b *Binding) TypeVector(count, blocklen, stride int, inner abi.Handle) (abi.Handle, error) {
	return b.newType(b.p.TypeVector(count, blocklen, stride, b.t(inner)))
}

func (b *Binding) TypeIndexed(blocklens, displs []int, inner abi.Handle) (abi.Handle, error) {
	return b.newType(b.p.TypeIndexed(blocklens, displs, b.t(inner)))
}

func (b *Binding) TypeCreateStruct(blocklens, displs []int, typs []abi.Handle) (abi.Handle, error) {
	members := make([]*Type, len(typs))
	for i, th := range typs {
		members[i] = b.t(th)
	}
	return b.newType(b.p.TypeCreateStruct(blocklens, displs, members))
}

func (b *Binding) TypeCommit(dtype abi.Handle) error {
	return b.err(b.p.TypeCommit(b.t(dtype)))
}

func (b *Binding) TypeFree(dtype abi.Handle) error {
	if code := b.p.TypeFree(b.t(dtype)); code != b.p.E.Success {
		return b.err(code)
	}
	delete(b.types, dtype)
	return nil
}

func (b *Binding) TypeSize(dtype abi.Handle) (int, error) {
	n, code := b.p.TypeSize(b.t(dtype))
	return n, b.err(code)
}

func (b *Binding) TypeExtent(dtype abi.Handle) (int, error) {
	n, code := b.p.TypeExtent(b.t(dtype))
	return n, b.err(code)
}

func (b *Binding) GetCount(st *abi.Status, dtype abi.Handle) (int, error) {
	n, code := b.p.GetCount(st.CountBytes, b.t(dtype))
	return n, b.err(code)
}

func (b *Binding) OpCreate(name string, commute bool) (abi.Handle, error) {
	o, code := b.p.OpCreate(name, commute)
	if code != b.p.E.Success {
		return b.null[abi.ClassOp], b.err(code)
	}
	h := b.mint(abi.ClassOp)
	b.ops[h] = o
	return h, nil
}

func (b *Binding) OpFree(op abi.Handle) error {
	if code := b.p.OpFree(b.o(op)); code != b.p.E.Success {
		return b.err(code)
	}
	delete(b.ops, op)
	return nil
}

func (b *Binding) Abort(comm abi.Handle, code int) error {
	return b.err(b.p.Abort(code))
}

func (b *Binding) CommRevoke(comm abi.Handle) error {
	return b.err(b.p.CommRevoke(b.c(comm)))
}

func (b *Binding) CommShrink(comm abi.Handle) (abi.Handle, error) {
	return b.newComm(b.p.CommShrink(b.c(comm)))
}

func (b *Binding) CommAgree(comm abi.Handle, flag uint64) (uint64, error) {
	out, code := b.p.CommAgree(b.c(comm), flag)
	return out, b.err(code)
}

func (b *Binding) CommFailureAck(comm abi.Handle) error {
	return b.err(b.p.CommFailureAck(b.c(comm)))
}

func (b *Binding) CommFailureGetAcked(comm abi.Handle) (abi.Handle, error) {
	return b.newGroup(b.p.CommFailureGetAcked(b.c(comm)))
}
