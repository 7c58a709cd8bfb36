package abi

import (
	"time"

	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Dialect is the upper vocabulary a Translator presents: everything in
// which one ABI translation layer differs from another. Mukautuva and
// MANA speak the standard dialect (StdDialect), Wi4MPI speaks MPICH's;
// the translate-and-forward bodies below are the same for all of them.
type Dialect struct {
	// Lookup and LookupInt resolve the predefined constants the
	// application above was compiled against.
	Lookup    func(Sym) Handle
	LookupInt func(IntSym) int
	// Mint allocates a fresh upper handle for a runtime object.
	Mint func(Class) Handle
	// ClassOf recognises the class of an upper handle the translator has
	// never seen, so the inner library is handed that class's null and
	// reports the error in its own vocabulary.
	ClassOf func(Handle) Class
	// StatusErr is the upper encoding of an error class inside a status.
	StatusErr func(ErrClass) int32
	// Label attributes re-raised errors to the translating layer.
	Label string
	// ErrClass classifies the inner table's in-status error codes (the
	// wrap library's MPI_Error_class symbol).
	ErrClass func(code int) ErrClass
}

// StdDialect is the standard ABI's vocabulary: fixed constants, the
// class in a handle's top byte, error classes as status codes.
func StdDialect(label string, errClass func(code int) ErrClass, mint func(Class) Handle) Dialect {
	return Dialect{
		Lookup:    StdLookup,
		LookupInt: StdLookupInt,
		Mint:      mint,
		ClassOf:   Handle.HandleClass,
		StatusErr: func(c ErrClass) int32 { return int32(c) },
		Label:     label,
		ErrClass:  errClass,
	}
}

// vocab is one side's sentinels, captured once so the call path compares
// plain integers.
type vocab struct {
	anySource, anyTag, procNull, root, undefined int
	// null is indexed by class; the ClassNone slot holds the datatype
	// null, the answer for a handle of no recognisable class.
	null [ClassRequest + 1]Handle
}

func captureVocab(lookup func(Sym) Handle, lookupInt func(IntSym) int) vocab {
	v := vocab{
		anySource: lookupInt(IntAnySource),
		anyTag:    lookupInt(IntAnyTag),
		procNull:  lookupInt(IntProcNull),
		root:      lookupInt(IntRoot),
		undefined: lookupInt(IntUndefined),
	}
	v.null[ClassNone] = lookup(SymTypeNull)
	v.null[ClassComm] = lookup(SymCommNull)
	v.null[ClassGroup] = lookup(SymGroupNull)
	v.null[ClassType] = lookup(SymTypeNull)
	v.null[ClassOp] = lookup(SymOpNull)
	v.null[ClassRequest] = lookup(SymRequestNull)
	return v
}

// predefinedSyms lists every object constant a translator maps eagerly.
func predefinedSyms() []Sym {
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
}

// Translator is the one translation layer between two ABI vocabularies:
// it presents a Dialect upward and forwards every call to an inner
// FuncTable, translating handles, sentinels, statuses and error classes
// on the way. Its state is a handle map (upper -> inner, built eagerly
// for the predefined constants, extended as objects are created) plus
// both sides' sentinels. Each call charges a fixed translation cost to
// the rank's virtual clock, which is how a layer's overhead becomes
// visible to the latency harness.
//
// mukautuva.Shim, wi4mpi.Preload and mana.Wrapper embed it; the methods
// are the FuncTable surface minus ImplName.
type Translator struct {
	inner   FuncTable
	d       Dialect
	clock   *simnet.Clock
	perCall time.Duration

	fwd    map[Handle]Handle // upper -> inner
	up, lo vocab
}

// NewTranslator builds the translation tables over a freshly loaded inner
// table. perCall is charged to clock once per translated call.
func NewTranslator(inner FuncTable, clock *simnet.Clock, perCall time.Duration, d Dialect) Translator {
	t := Translator{
		inner:   inner,
		d:       d,
		clock:   clock,
		perCall: perCall,
		fwd:     make(map[Handle]Handle),
		up:      captureVocab(d.Lookup, d.LookupInt),
		lo:      captureVocab(inner.Lookup, inner.LookupInt),
	}
	for _, sym := range predefinedSyms() {
		t.fwd[d.Lookup(sym)] = inner.Lookup(sym)
	}
	return t
}

// Charge bills one call's translation cost to virtual time.
func (t *Translator) Charge() { t.clock.Advance(t.perCall) }

// In translates an upper handle to the inner one.
func (t *Translator) In(h Handle) Handle {
	if n, ok := t.fwd[h]; ok {
		return n
	}
	return t.unknown(h)
}

// unknown answers a handle the translator never issued with the inner
// null of its class. It is split from In so the hit path inlines.
func (t *Translator) unknown(h Handle) Handle {
	if c := t.d.ClassOf(h); c <= ClassRequest {
		return t.lo.null[c]
	}
	return t.lo.null[ClassNone]
}

// Bind maps an upper handle to an inner one (MANA rebinds replayed
// virtual ids with it).
func (t *Translator) Bind(upper, inner Handle) { t.fwd[upper] = inner }

// Release drops an upper handle's mapping (after frees and completed
// requests).
func (t *Translator) Release(h Handle) { delete(t.fwd, h) }

// adopt mints an upper handle for an inner result. Inner null results
// collapse to the upper null of the class.
func (t *Translator) adopt(class Class, native Handle) Handle {
	if native == t.lo.null[class] {
		return t.up.null[class]
	}
	h := t.d.Mint(class)
	t.fwd[h] = native
	return h
}

// out finishes a handle-creating call.
func (t *Translator) out(class Class, native Handle, err error) (Handle, error) {
	if err != nil {
		return t.up.null[class], t.Err(err)
	}
	return t.adopt(class, native), nil
}

// freed finishes a handle-freeing call.
func (t *Translator) freed(h Handle, err error) error {
	if err == nil {
		t.Release(h)
	}
	return t.Err(err)
}

// PeerIn translates a rank argument's upper sentinels to inner values.
func (t *Translator) PeerIn(v int) int {
	switch v {
	case t.up.anySource:
		return t.lo.anySource
	case t.up.procNull:
		return t.lo.procNull
	case t.up.root:
		return t.lo.root
	default:
		return v
	}
}

// TagIn translates the tag wildcard.
func (t *Translator) TagIn(v int) int {
	if v == t.up.anyTag {
		return t.lo.anyTag
	}
	return v
}

// ColorIn translates an MPI_UNDEFINED split colour.
func (t *Translator) ColorIn(v int) int {
	if v == t.up.undefined {
		return t.lo.undefined
	}
	return v
}

// countBack translates inner MPI_UNDEFINED results (GetCount, GroupRank,
// translate-ranks) to the upper value.
func (t *Translator) countBack(v int) int {
	if v == t.lo.undefined {
		return t.up.undefined
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
	if int(st.Source) == t.lo.procNull {
		st.Source = int32(t.up.procNull)
	}
	if int(st.Tag) == t.lo.anyTag {
		st.Tag = int32(t.up.anyTag)
	}
	if st.Error != 0 {
		st.Error = t.d.StatusErr(t.d.ErrClass(int(st.Error)))
	}
}

// Err re-attributes an inner error to this layer, keeping its class.
func (t *Translator) Err(e error) error {
	if e == nil {
		return nil
	}
	return Errorf(ClassOf(e), t.d.Label, "%v", e)
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
	r, err := t.inner.Isend(buf, count, t.In(dtype), t.PeerIn(dest), tag, t.In(comm))
	return t.out(ClassRequest, r, err)
}

func (t *Translator) Irecv(buf []byte, count int, dtype Handle, source, tag int, comm Handle) (Handle, error) {
	t.Charge()
	r, err := t.inner.Irecv(buf, count, t.In(dtype), t.PeerIn(source), t.TagIn(tag), t.In(comm))
	return t.out(ClassRequest, r, err)
}

func (t *Translator) Wait(req Handle, st *Status) error {
	t.Charge()
	err := t.inner.Wait(t.In(req), st)
	t.StatusBack(st)
	t.Release(req)
	return t.Err(err)
}

func (t *Translator) Test(req Handle, st *Status) (bool, error) {
	t.Charge()
	done, err := t.inner.Test(t.In(req), st)
	if done {
		t.StatusBack(st)
		t.Release(req)
	}
	return done, t.Err(err)
}

func (t *Translator) Waitall(reqs []Handle, sts []Status) error {
	t.Charge()
	native := make([]Handle, len(reqs))
	for i, r := range reqs {
		native[i] = t.In(r)
	}
	err := t.inner.Waitall(native, sts)
	for i := range sts {
		t.StatusBack(&sts[i])
	}
	for _, r := range reqs {
		t.Release(r)
	}
	return t.Err(err)
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
	n, err := t.inner.CommSize(t.In(comm))
	return n, t.Err(err)
}

func (t *Translator) CommRank(comm Handle) (int, error) {
	t.Charge()
	r, err := t.inner.CommRank(t.In(comm))
	return r, t.Err(err)
}

func (t *Translator) CommDup(comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommDup(t.In(comm))
	return t.out(ClassComm, n, err)
}

func (t *Translator) CommSplit(comm Handle, color, key int) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommSplit(t.In(comm), t.ColorIn(color), key)
	return t.out(ClassComm, n, err)
}

func (t *Translator) CommCreate(comm, group Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommCreate(t.In(comm), t.In(group))
	return t.out(ClassComm, n, err)
}

func (t *Translator) CommGroup(comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommGroup(t.In(comm))
	return t.out(ClassGroup, n, err)
}

func (t *Translator) CommFree(comm Handle) error {
	t.Charge()
	return t.freed(comm, t.inner.CommFree(t.In(comm)))
}

func (t *Translator) GroupSize(group Handle) (int, error) {
	t.Charge()
	n, err := t.inner.GroupSize(t.In(group))
	return n, t.Err(err)
}

func (t *Translator) GroupRank(group Handle) (int, error) {
	t.Charge()
	r, err := t.inner.GroupRank(t.In(group))
	return t.countBack(r), t.Err(err)
}

func (t *Translator) GroupIncl(group Handle, ranks []int) (Handle, error) {
	t.Charge()
	n, err := t.inner.GroupIncl(t.In(group), ranks)
	return t.out(ClassGroup, n, err)
}

func (t *Translator) GroupExcl(group Handle, ranks []int) (Handle, error) {
	t.Charge()
	n, err := t.inner.GroupExcl(t.In(group), ranks)
	return t.out(ClassGroup, n, err)
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
	n, err := t.inner.TypeContiguous(count, t.In(inner))
	return t.out(ClassType, n, err)
}

func (t *Translator) TypeVector(count, blocklen, stride int, inner Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.TypeVector(count, blocklen, stride, t.In(inner))
	return t.out(ClassType, n, err)
}

func (t *Translator) TypeIndexed(blocklens, displs []int, inner Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.TypeIndexed(blocklens, displs, t.In(inner))
	return t.out(ClassType, n, err)
}

func (t *Translator) TypeCreateStruct(blocklens, displs []int, typs []Handle) (Handle, error) {
	t.Charge()
	native := make([]Handle, len(typs))
	for i, h := range typs {
		native[i] = t.In(h)
	}
	n, err := t.inner.TypeCreateStruct(blocklens, displs, native)
	return t.out(ClassType, n, err)
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
	n, err := t.inner.TypeSize(t.In(dtype))
	return n, t.Err(err)
}

func (t *Translator) TypeExtent(dtype Handle) (int, error) {
	t.Charge()
	n, err := t.inner.TypeExtent(t.In(dtype))
	return n, t.Err(err)
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
	n, err := t.inner.CommShrink(t.In(comm))
	return t.out(ClassComm, n, err)
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
	n, err := t.inner.CommFailureGetAcked(t.In(comm))
	return t.out(ClassGroup, n, err)
}
