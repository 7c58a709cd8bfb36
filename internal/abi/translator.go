package abi

import (
	"time"

	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// predefined lists every object constant a translator maps.
var predefined = func() []Sym {
	syms := []Sym{
		SymCommWorld, SymCommSelf, SymCommNull,
		SymGroupNull, SymGroupEmpty, SymTypeNull,
		SymOpNull, SymRequestNull,
	}
	for _, k := range types.Kinds() {
		syms = append(syms, SymForKind(k))
	}
	for _, op := range ops.Ops() {
		syms = append(syms, SymForOp(op))
	}
	return syms
}()

// entry is one upper handle's row in a Translator's table: few enough
// fields that the compiler keeps In's copy of it in registers.
type entry struct {
	inner Handle
	class Class
	req   reqNote
}

// reqNote is what a layer above notes on a request it minted itself
// (MANA): the communicator a receive counts against (HandleNull for a
// send), or a completion it served before any wait.
type reqNote struct {
	comm   Handle
	served *Completion
}

// Completion is a request's outcome.
type Completion struct {
	Status Status
	Err    error
}

// Translator is the one translation layer between two ABI vocabularies:
// it presents a Dialect upward and forwards every call to an inner
// FuncTable, translating handles, sentinels, statuses and error classes
// on the way. Mukautuva and MANA present Std, Wi4MPI mpich.Dialect; the
// translate-and-forward bodies below are the same for all of them. Its
// state is both sides' sentinels and a handle table keyed by upper
// handle, in two parts: the predefined rows, one read-only map shared by
// every translator presenting the same dialect over the same one below
// (Dialect.predefOver), and the rank's own map of what it minted, made
// by its first mint. Predefined rows are probed first. The table alone
// decides when a handle maps, mints and dies:
//   - a predefined handle maps both ways and is never minted or released;
//   - MPI_REQUEST_NULL completes at once with the empty status;
//   - an unknown request answers MPI_ERR_REQUEST with no call down;
//   - a request is released once the inner call completes it or answers
//     MPI_ERR_REQUEST for it. A request completes when the inner Wait
//     succeeds or fills a status with a nonzero error code (a receive
//     truncated, say: it consumed its message and the inner table freed
//     it), or when the inner Test reports it done, with or without an
//     error. A wait whose progress failed leaves the status untouched
//     and keeps the request.
//
// Only the translator's own calls and Issue write the minted map: out
// maps a created handle, freed drops a freed one, Complete drops a
// finished request, and Issue maps a request id a layer above minted
// itself.
//
// Each call charges a fixed translation cost to the rank's virtual
// clock, which is how a layer's overhead becomes visible to the latency
// harness.
//
// mukautuva.Shim, wi4mpi.Preload and mana.Wrapper embed it; the methods
// are the FuncTable surface minus ImplName.
type Translator struct {
	inner FuncTable
	// d is the dialect presented upward; below is the inner table's,
	// whose codes classify the errors in its statuses and whose
	// predefined handles adopt recognises in its results.
	d, below *Dialect
	// label attributes re-raised errors to the translating layer, and
	// mint allocates a fresh upper handle for a runtime object.
	label   string
	mint    func(Class) Handle
	clock   *simnet.Clock
	perCall time.Duration

	// pre holds the predefined rows (shared, read-only) and table the
	// minted ones, upper -> inner.
	pre   *predefRows
	table map[Handle]entry
	// up and lo are the sentinels of d and of the inner table's own
	// Lookup and LookupInt.
	up, lo Consts
	// st is the status Complete hands the inner Wait or Test, so a
	// caller's nil status costs no allocation.
	st Status
}

// NewTranslator builds the translation layer over a freshly loaded inner
// table whose predefined handles are below's, presenting d under the
// layer's label and mint. perCall is charged to clock once per translated
// call.
func NewTranslator(inner FuncTable, below, d *Dialect, label string, mint func(Class) Handle,
	clock *simnet.Clock, perCall time.Duration) Translator {
	return Translator{
		inner:   inner,
		d:       d,
		below:   below,
		label:   label,
		mint:    mint,
		clock:   clock,
		perCall: perCall,
		pre:     d.predefOver(below),
		up:      ConstsOf(d),
		lo:      ConstsOf(inner),
	}
}

// Charge bills one call's translation cost to virtual time.
func (t *Translator) Charge() { t.clock.Advance(t.perCall) }

// In translates an upper handle to the inner one: a predefined handle
// through the shared rows, a minted one through the rank's own map, and
// any other to the inner null of its class.
func (t *Translator) In(h Handle) Handle {
	if s := &t.pre.slots[t.pre.index(h)]; s.h == h {
		return s.inner
	}
	if e, ok := t.table[h]; ok {
		return e.inner
	}
	if c := t.d.ClassOf(h); c <= ClassRequest {
		return t.lo.Null[c]
	}
	return t.lo.Null[ClassNone]
}

// bind maps a handle the translator, or a layer above, minted.
func (t *Translator) bind(h Handle, e entry) {
	if t.table == nil {
		t.table = make(map[Handle]entry)
	}
	t.table[h] = e
}

// Issue maps a request id a layer above minted itself to an inner request
// and its note; Complete returns a served completion with no call down.
func (t *Translator) Issue(req, inner, comm Handle, served *Completion) {
	t.bind(req, entry{inner: inner, class: ClassRequest, req: reqNote{comm, served}})
}

// Outstanding counts the requests the table maps.
func (t *Translator) Outstanding() int {
	n := 0
	for _, e := range t.table {
		if e.class == ClassRequest {
			n++
		}
	}
	return n
}

// adopt finishes an inner result: a null or predefined inner handle is
// the upper constant, anything else gets a freshly minted handle.
func (t *Translator) adopt(class Class, native Handle) Handle {
	if native == t.lo.Null[class] {
		return t.up.Null[class]
	}
	if class != ClassRequest { // the null is the only predefined request
		if sym, ok := t.below.symOf(native); ok && symClass(sym) == class {
			return t.d.Lookup(sym)
		}
	}
	h := t.mint(class)
	t.bind(h, entry{inner: native, class: class})
	return h
}

// out finishes a handle-creating call.
func (t *Translator) out(class Class, native Handle, err error) (Handle, error) {
	if err != nil {
		return t.up.Null[class], t.Err(err)
	}
	return t.adopt(class, native), nil
}

// The finishers of the calls that return a count or a handle of a class.
func (t *Translator) n(v int, err error) (int, error)              { return v, t.Err(err) }
func (t *Translator) outComm(h Handle, err error) (Handle, error)  { return t.out(ClassComm, h, err) }
func (t *Translator) outGroup(h Handle, err error) (Handle, error) { return t.out(ClassGroup, h, err) }
func (t *Translator) outType(h Handle, err error) (Handle, error)  { return t.out(ClassType, h, err) }
func (t *Translator) outReq(h Handle, err error) (Handle, error)   { return t.out(ClassRequest, h, err) }

// freed finishes a handle-freeing call: on success the handle's mapping
// goes, unless it is predefined (no predefined row is in t.table).
func (t *Translator) freed(h Handle, err error) error {
	if err == nil {
		delete(t.table, h)
	}
	return t.Err(err)
}

// PeerIn translates a rank argument's upper sentinels to inner values.
func (t *Translator) PeerIn(v int) int {
	switch v {
	case t.up.AnySource:
		return t.lo.AnySource
	case t.up.ProcNull:
		return t.lo.ProcNull
	case t.up.Root:
		return t.lo.Root
	default:
		return v
	}
}

// TagIn translates the tag wildcard.
func (t *Translator) TagIn(v int) int {
	if v == t.up.AnyTag {
		return t.lo.AnyTag
	}
	return v
}

// colorIn translates an MPI_UNDEFINED split colour.
func (t *Translator) colorIn(v int) int {
	if v == t.up.Undefined {
		return t.lo.Undefined
	}
	return v
}

// countBack translates inner MPI_UNDEFINED results (GetCount, GroupRank,
// translate-ranks) to the upper value.
func (t *Translator) countBack(v int) int {
	if v == t.lo.Undefined {
		return t.up.Undefined
	}
	return v
}

// StatusBack rewrites inner sentinels and the inner error code in a
// returned status into the upper vocabulary. Regular communicator ranks
// and tags pass through.
func (t *Translator) StatusBack(st *Status) {
	if st == nil {
		return
	}
	switch int(st.Source) {
	case t.lo.ProcNull:
		st.Source = int32(t.up.ProcNull)
	case t.lo.AnySource:
		st.Source = int32(t.up.AnySource)
	}
	if int(st.Tag) == t.lo.AnyTag {
		st.Tag = int32(t.up.AnyTag)
	}
	if st.Error != 0 {
		st.Error = int32(t.d.Codes.CodeOf(t.below.Codes.ClassOf(int(st.Error))))
	}
}

// Err re-attributes an inner error to this layer, keeping its class.
func (t *Translator) Err(e error) error {
	if e == nil {
		return nil
	}
	return Errorf(ClassOf(e), t.label, "%v", e)
}

// --- the FuncTable surface ---

// Lookup resolves constants to the dialect's values: the application
// above embeds only those.
func (t *Translator) Lookup(sym Sym) Handle { return t.d.Lookup(sym) }

// LookupInt resolves integer constants to the dialect's values.
func (t *Translator) LookupInt(sym IntSym) int { return t.d.LookupInt(sym) }

func (t *Translator) Send(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Send(buf, count, t.In(dtype), t.PeerIn(dest), tag, t.In(comm)))
}

func (t *Translator) Recv(buf []byte, count int, dtype Handle, source, tag int, comm Handle, st *Status) error {
	t.Charge()
	err := t.inner.Recv(buf, count, t.In(dtype), t.PeerIn(source), t.TagIn(tag), t.In(comm), st)
	t.StatusBack(st)
	return t.Err(err)
}

func (t *Translator) Isend(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) (Handle, error) {
	t.Charge()
	return t.outReq(t.inner.Isend(buf, count, t.In(dtype), t.PeerIn(dest), tag, t.In(comm)))
}

func (t *Translator) Irecv(buf []byte, count int, dtype Handle, source, tag int, comm Handle) (Handle, error) {
	t.Charge()
	return t.outReq(t.inner.Irecv(buf, count, t.In(dtype), t.PeerIn(source), t.TagIn(tag), t.In(comm)))
}

// Complete finishes one request by Wait (block) or by Test under the
// table's request rules, returning the communicator Issue noted. It
// charges nothing; its callers do.
func (t *Translator) Complete(req Handle, st *Status, block bool) (done bool, comm Handle, err error) {
	if req == t.up.Null[ClassRequest] {
		if st != nil {
			*st = Status{Source: int32(t.up.ProcNull), Tag: int32(t.up.AnyTag)}
		}
		return true, HandleNull, nil
	}
	e, ok := t.table[req]
	switch {
	case !ok || e.class != ClassRequest:
		return false, HandleNull, Errorf(ErrRequest, t.label, "unknown request %#x", uint64(req))
	case e.req.served != nil:
		delete(t.table, req)
		if st != nil {
			*st = e.req.served.Status
		}
		return true, HandleNull, e.req.served.Err
	}
	// The inner call fills t.st only on completion, so a nonzero error
	// code in it tells a request that completed with an error (the inner
	// table freed it) from a wait whose progress failed (it did not).
	t.st = Status{}
	if block {
		err = t.inner.Wait(e.inner, &t.st)
		done = err == nil || t.st.Error != 0
	} else {
		done, err = t.inner.Test(e.inner, &t.st)
	}
	if done {
		t.StatusBack(&t.st)
		if st != nil {
			*st = t.st
		}
	}
	if done || ClassOf(err) == ErrRequest {
		delete(t.table, req)
	}
	return done, e.req.comm, t.Err(err)
}

func (t *Translator) Wait(req Handle, st *Status) error {
	t.Charge()
	return t.wait(req, st)
}

// wait is Wait uncharged.
func (t *Translator) wait(req Handle, st *Status) error {
	_, _, err := t.Complete(req, st, true)
	return err
}

func (t *Translator) Test(req Handle, st *Status) (bool, error) {
	t.Charge()
	done, _, err := t.Complete(req, st, false)
	return done, err
}

// Waitall is Wait per request under one charge.
func (t *Translator) Waitall(reqs []Handle, sts []Status) error {
	t.Charge()
	return WaitEach(reqs, sts, t.label, t.wait)
}

func (t *Translator) Sendrecv(sendbuf []byte, scount int, stype Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype Handle, source, rtag int,
	comm Handle, st *Status) error {
	t.Charge()
	err := t.inner.Sendrecv(sendbuf, scount, t.In(stype), t.PeerIn(dest), stag,
		recvbuf, rcount, t.In(rtype), t.PeerIn(source), t.TagIn(rtag), t.In(comm), st)
	t.StatusBack(st)
	return t.Err(err)
}

func (t *Translator) Probe(source, tag int, comm Handle, st *Status) error {
	t.Charge()
	err := t.inner.Probe(t.PeerIn(source), t.TagIn(tag), t.In(comm), st)
	t.StatusBack(st)
	return t.Err(err)
}

func (t *Translator) Iprobe(source, tag int, comm Handle, st *Status) (bool, error) {
	t.Charge()
	found, err := t.inner.Iprobe(t.PeerIn(source), t.TagIn(tag), t.In(comm), st)
	if found {
		t.StatusBack(st)
	}
	return found, t.Err(err)
}

func (t *Translator) Barrier(comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Barrier(t.In(comm)))
}

func (t *Translator) Bcast(buf []byte, count int, dtype Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Bcast(buf, count, t.In(dtype), root, t.In(comm)))
}

func (t *Translator) Reduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Reduce(sendbuf, recvbuf, count, t.In(dtype), t.In(op), root, t.In(comm)))
}

func (t *Translator) Allreduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Allreduce(sendbuf, recvbuf, count, t.In(dtype), t.In(op), t.In(comm)))
}

func (t *Translator) Gather(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Gather(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), root, t.In(comm)))
}

func (t *Translator) Allgather(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Allgather(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), t.In(comm)))
}

func (t *Translator) Scatter(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Scatter(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), root, t.In(comm)))
}

func (t *Translator) Alltoall(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Alltoall(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), t.In(comm)))
}

func (t *Translator) CommSize(comm Handle) (int, error) {
	t.Charge()
	return t.n(t.inner.CommSize(t.In(comm)))
}

func (t *Translator) CommRank(comm Handle) (int, error) {
	t.Charge()
	return t.n(t.inner.CommRank(t.In(comm)))
}

func (t *Translator) CommDup(comm Handle) (Handle, error) {
	t.Charge()
	return t.outComm(t.inner.CommDup(t.In(comm)))
}

func (t *Translator) CommSplit(comm Handle, color, key int) (Handle, error) {
	t.Charge()
	return t.outComm(t.inner.CommSplit(t.In(comm), t.colorIn(color), key))
}

func (t *Translator) CommCreate(comm, group Handle) (Handle, error) {
	t.Charge()
	return t.outComm(t.inner.CommCreate(t.In(comm), t.In(group)))
}

func (t *Translator) CommGroup(comm Handle) (Handle, error) {
	t.Charge()
	return t.outGroup(t.inner.CommGroup(t.In(comm)))
}

func (t *Translator) CommFree(comm Handle) error {
	t.Charge()
	return t.freed(comm, t.inner.CommFree(t.In(comm)))
}

func (t *Translator) GroupSize(group Handle) (int, error) {
	t.Charge()
	return t.n(t.inner.GroupSize(t.In(group)))
}

func (t *Translator) GroupRank(group Handle) (int, error) {
	t.Charge()
	r, err := t.inner.GroupRank(t.In(group))
	return t.countBack(r), t.Err(err)
}

func (t *Translator) GroupIncl(group Handle, ranks []int) (Handle, error) {
	t.Charge()
	return t.outGroup(t.inner.GroupIncl(t.In(group), ranks))
}

func (t *Translator) GroupExcl(group Handle, ranks []int) (Handle, error) {
	t.Charge()
	return t.outGroup(t.inner.GroupExcl(t.In(group), ranks))
}

func (t *Translator) GroupTranslateRanks(g1 Handle, ranks []int, g2 Handle) ([]int, error) {
	t.Charge()
	out, err := t.inner.GroupTranslateRanks(t.In(g1), ranks, t.In(g2))
	for i := range out {
		out[i] = t.countBack(out[i])
	}
	return out, t.Err(err)
}

func (t *Translator) GroupFree(group Handle) error {
	t.Charge()
	return t.freed(group, t.inner.GroupFree(t.In(group)))
}

func (t *Translator) TypeContiguous(count int, inner Handle) (Handle, error) {
	t.Charge()
	return t.outType(t.inner.TypeContiguous(count, t.In(inner)))
}

func (t *Translator) TypeVector(count, blocklen, stride int, inner Handle) (Handle, error) {
	t.Charge()
	return t.outType(t.inner.TypeVector(count, blocklen, stride, t.In(inner)))
}

func (t *Translator) TypeIndexed(blocklens, displs []int, inner Handle) (Handle, error) {
	t.Charge()
	return t.outType(t.inner.TypeIndexed(blocklens, displs, t.In(inner)))
}

func (t *Translator) TypeCreateStruct(blocklens, displs []int, typs []Handle) (Handle, error) {
	t.Charge()
	native := make([]Handle, len(typs))
	for i, h := range typs {
		native[i] = t.In(h)
	}
	return t.outType(t.inner.TypeCreateStruct(blocklens, displs, native))
}

func (t *Translator) TypeCommit(dtype Handle) error {
	t.Charge()
	return t.Err(t.inner.TypeCommit(t.In(dtype)))
}

func (t *Translator) TypeFree(dtype Handle) error {
	t.Charge()
	return t.freed(dtype, t.inner.TypeFree(t.In(dtype)))
}

func (t *Translator) TypeSize(dtype Handle) (int, error) {
	t.Charge()
	return t.n(t.inner.TypeSize(t.In(dtype)))
}

func (t *Translator) TypeExtent(dtype Handle) (int, error) {
	t.Charge()
	return t.n(t.inner.TypeExtent(t.In(dtype)))
}

func (t *Translator) GetCount(st *Status, dtype Handle) (int, error) {
	t.Charge()
	n, err := t.inner.GetCount(st, t.In(dtype))
	return t.countBack(n), t.Err(err)
}

func (t *Translator) OpCreate(name string, commute bool) (Handle, error) {
	t.Charge()
	n, err := t.inner.OpCreate(name, commute)
	return t.out(ClassOp, n, err)
}

func (t *Translator) OpFree(op Handle) error {
	t.Charge()
	return t.freed(op, t.inner.OpFree(t.In(op)))
}

// Abort is not charged: the job is over.
func (t *Translator) Abort(comm Handle, code int) error {
	return t.Err(t.inner.Abort(t.In(comm), code))
}

// The ULFM (MPIX_*) surface: translated like everything else — handles
// in, adopted handles out, inner MPIX error codes reclassified by Err and
// StatusBack. This is where translation earns its keep for fault
// tolerance: each implementation numbers proc-failed and revoked
// differently (MPICH 71/72, Open MPI 54/56, the standard ABI 17/18), so
// an application's failure handling survives an implementation swap only
// because every layer maps them through the class encoding both ways.

func (t *Translator) CommRevoke(comm Handle) error {
	t.Charge()
	return t.Err(t.inner.CommRevoke(t.In(comm)))
}

func (t *Translator) CommShrink(comm Handle) (Handle, error) {
	t.Charge()
	return t.outComm(t.inner.CommShrink(t.In(comm)))
}

func (t *Translator) CommAgree(comm Handle, flag uint64) (uint64, error) {
	t.Charge()
	out, err := t.inner.CommAgree(t.In(comm), flag)
	return out, t.Err(err)
}

func (t *Translator) CommFailureAck(comm Handle) error {
	t.Charge()
	return t.Err(t.inner.CommFailureAck(t.In(comm)))
}

func (t *Translator) CommFailureGetAcked(comm Handle) (Handle, error) {
	t.Charge()
	return t.outGroup(t.inner.CommFailureGetAcked(t.In(comm)))
}
