package mpicore_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/stdabi"
	"repro/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/native_transcripts.golden from this build")

// nativeImpl is one implementation's native function table under test.
type nativeImpl struct {
	name string
	bind func(w *fabric.World, rank int) abi.FuncTable
	// codeOf is the native code an error class surfaces as.
	codeOf func(abi.ErrClass) int
}

var nativeImpls = []nativeImpl{
	{"mpich", func(w *fabric.World, r int) abi.FuncTable { return mpich.Impl.Init(w, r) }, mpich.CodeOfClass},
	{"openmpi", func(w *fabric.World, r int) abi.FuncTable { return openmpi.Impl.Init(w, r) }, openmpi.CodeOfClass},
	{"stdabi", func(w *fabric.World, r int) abi.FuncTable { return stdabi.Impl.Init(w, r) }, stdabi.CodeOfClass},
}

const transcriptSum = "mpicore.transcript.sum"

func init() {
	if err := ops.RegisterUser(transcriptSum, true,
		func(acc, in []byte, k types.Kind, count int) { _ = ops.Apply(ops.OpSum, k, acc, in, count) }); err != nil {
		panic(err)
	}
}

// scribe records one rank's side of a transcript, one row per call.
type scribe struct {
	impl nativeImpl
	rank int
	rows []string
	// named maps each predefined handle to its kind of answer: "null", or
	// the symbol it resolves.
	named map[abi.Handle]string
	// verdicts holds, per row, what every implementation must agree on:
	// the error class and which handle came back, in vocabulary-free
	// terms. pending accumulates the current row's.
	verdicts []verdict
	pending  string
}

// verdict is one row's implementation-independent outcome.
type verdict struct{ call, outcome string }

func newScribe(impl nativeImpl, rank int, b abi.FuncTable) *scribe {
	s := &scribe{impl: impl, rank: rank, named: make(map[abi.Handle]string)}
	for _, sym := range predefinedSyms() {
		s.named[b.Lookup(sym)] = fmt.Sprintf("predefined(%d)", sym)
	}
	for _, sym := range []abi.Sym{abi.SymCommNull, abi.SymGroupNull, abi.SymTypeNull, abi.SymOpNull, abi.SymRequestNull} {
		s.named[b.Lookup(sym)] = "null"
	}
	return s
}

// predefinedSyms lists every object constant.
func predefinedSyms() []abi.Sym {
	syms := []abi.Sym{abi.SymCommWorld, abi.SymCommSelf, abi.SymCommNull,
		abi.SymGroupNull, abi.SymGroupEmpty, abi.SymTypeNull, abi.SymOpNull, abi.SymRequestNull}
	for _, k := range types.Kinds() {
		syms = append(syms, abi.SymForKind(k))
	}
	for _, op := range ops.Ops() {
		syms = append(syms, abi.SymForOp(op))
	}
	return syms
}

func (s *scribe) row(call, result string) {
	s.rows = append(s.rows, fmt.Sprintf("%s r%d %s -> %s", s.impl.name, s.rank, call, result))
	if s.pending != "" {
		s.verdicts = append(s.verdicts, verdict{fmt.Sprintf("r%d %s", s.rank, call), s.pending})
		s.pending = ""
	}
}

// err renders a return: its error class, the native code that class
// surfaces as, and the full message.
func (s *scribe) err(err error) string {
	c := abi.ClassOf(err)
	s.pending += " " + c.String()
	if err == nil {
		return "ok"
	}
	return fmt.Sprintf("%v(%d) %q", c, s.impl.codeOf(c), err.Error())
}

func (s *scribe) h(h abi.Handle, err error) string {
	kind, ok := s.named[h]
	if !ok {
		kind = "minted"
	}
	s.pending += " " + kind
	return fmt.Sprintf("%#x %s", uint64(h), s.err(err))
}
func (s *scribe) n(n int, err error) string { return fmt.Sprintf("%d %s", n, s.err(err)) }

func (s *scribe) st(st abi.Status, err error) string {
	return fmt.Sprintf("%s %s", status(st), s.err(err))
}

func status(st abi.Status) string {
	return fmt.Sprintf("st{src=%d tag=%d err=%d n=%d cancelled=%t}",
		st.Source, st.Tag, st.Error, st.CountBytes, st.Cancelled)
}

// TestNativeBindingTranscripts pins every native FuncTable's observable
// behaviour: one scripted two-rank program per implementation calls all 51
// entries and records every returned handle, the error class and native
// code of every return, every status, and — for each handle argument of
// every handle-taking call — the answers to the class's null handle, a
// handle never issued and a freed one. `go test ./internal/mpicore -run
// NativeBindingTranscripts -update` rewrites the golden file.
//
// Independently of the golden, every row must give the same error class
// on every implementation, and a returned handle must be the null handle,
// the same predefined object, or a freshly minted one on all of them:
// implementations differ in vocabulary, never in outcome.
func TestNativeBindingTranscripts(t *testing.T) {
	var got strings.Builder
	verdicts := make([][]verdict, len(nativeImpls))
	for i, impl := range nativeImpls {
		w := fabrictest.World(t, 2)
		var scribes [2]*scribe
		fabrictest.Run(t, w, func(r int) error {
			b := impl.bind(w, r)
			scribes[r] = newScribe(impl, r, b)
			transcript(scribes[r], b)
			return nil
		})
		for _, s := range scribes {
			for _, row := range s.rows {
				got.WriteString(row)
				got.WriteByte('\n')
			}
			verdicts[i] = append(verdicts[i], s.verdicts...)
		}
	}
	ref := verdicts[0]
	for i, vs := range verdicts[1:] {
		name := nativeImpls[i+1].name
		if len(vs) != len(ref) {
			t.Fatalf("%s ran %d checked rows, %s %d", name, len(vs), nativeImpls[0].name, len(ref))
		}
		for j, v := range vs {
			if v.call != ref[j].call {
				t.Fatalf("row %d: %s ran %q where %s ran %q", j, name, v.call, nativeImpls[0].name, ref[j].call)
			}
			if v.outcome != ref[j].outcome {
				t.Errorf("%s: %s answers%s, %s answers%s",
					v.call, name, v.outcome, nativeImpls[0].name, ref[j].outcome)
			}
		}
	}
	golden := filepath.Join("testdata", "native_transcripts.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d lines differ from %s", bad, golden)
	}
}

// transcript is the scripted program; both ranks run it.
func transcript(s *scribe, b abi.FuncTable) {
	me := s.rank
	peer := 1 - me
	lk := b.Lookup
	world, self := lk(abi.SymCommWorld), lk(abi.SymCommSelf)
	groupEmpty, reqNull := lk(abi.SymGroupEmpty), lk(abi.SymRequestNull)
	byt := lk(abi.SymForKind(types.KindByte))
	i32 := lk(abi.SymForKind(types.KindInt32))
	f64 := lk(abi.SymForKind(types.KindFloat64))
	sum, maxOp := lk(abi.SymForOp(ops.OpSum)), lk(abi.SymForOp(ops.OpMax))
	anySource, anyTag := b.LookupInt(abi.IntAnySource), b.LookupInt(abi.IntAnyTag)
	procNull, undefined := b.LookupInt(abi.IntProcNull), b.LookupInt(abi.IntUndefined)
	one := func(v int) []byte { return abi.Int32Bytes([]int32{int32(v)}) }
	var (
		st  abi.Status
		err error
	)

	// The vocabulary.
	if me == 0 {
		s.row("ImplName", b.ImplName())
		for _, sym := range append([]abi.Sym{abi.SymInvalid}, predefinedSyms()...) {
			s.row(fmt.Sprintf("Lookup(%d)", sym), fmt.Sprintf("%#x", uint64(lk(sym))))
		}
		for sym := abi.IntAnySource; sym <= abi.IntTagUB; sym++ {
			s.row(fmt.Sprintf("LookupInt(%d)", sym), fmt.Sprint(b.LookupInt(sym)))
		}
	}
	s.row("CommSize(world)", s.n(b.CommSize(world)))
	s.row("CommRank(world)", s.n(b.CommRank(world)))
	s.row("CommSize(self)", s.n(b.CommSize(self)))
	s.row("CommRank(self)", s.n(b.CommRank(self)))

	// Blocking point-to-point: eager both ways, PROC_NULL, truncation,
	// rendezvous.
	if me == 0 {
		s.row("Send(3 int32 -> 1, tag 7)", s.err(b.Send(abi.Int32Bytes([]int32{1, 2, 3}), 3, i32, 1, 7, world)))
		buf := make([]byte, 16)
		st = abi.Status{}
		err := b.Recv(buf, 2, f64, 1, anyTag, world, &st)
		s.row("Recv(2 float64 <- 1, ANY_TAG)", fmt.Sprintf("%x %s", buf, s.st(st, err)))
		s.row("Send(10 bytes -> 1, tag 9)", s.err(b.Send(make([]byte, 10), 10, byt, 1, 9, world)))
		big := make([]byte, 64<<10)
		st = abi.Status{}
		err = b.Recv(big, len(big), byt, 1, 10, world, &st)
		s.row("Recv(64 KiB <- 1, tag 10)", s.st(st, err))
	} else {
		buf := make([]byte, 12)
		st = abi.Status{}
		err := b.Recv(buf, 3, i32, anySource, 7, world, &st)
		s.row("Recv(3 int32 <- ANY_SOURCE, tag 7)", fmt.Sprintf("%x %s", buf, s.st(st, err)))
		s.row("Send(2 float64 -> 0, tag 8)", s.err(b.Send(abi.Float64Bytes([]float64{0.5, -1}), 2, f64, 0, 8, world)))
		st = abi.Status{}
		err = b.Recv(make([]byte, 4), 4, byt, 0, 9, world, &st)
		s.row("Recv(4 bytes <- 0, tag 9: truncated)", s.st(st, err))
		s.row("Send(64 KiB -> 0, tag 10)", s.err(b.Send(make([]byte, 64<<10), 64<<10, byt, 0, 10, world)))
	}
	s.row("Send(-> PROC_NULL)", s.err(b.Send(nil, 0, byt, procNull, 0, world)))
	st = abi.Status{}
	err = b.Recv(nil, 0, byt, procNull, 0, world, &st)
	s.row("Recv(<- PROC_NULL)", s.st(st, err))
	s.row("Send(bad rank)", s.err(b.Send(nil, 0, byt, 5, 0, world)))
	s.row("Send(bad tag)", s.err(b.Send(nil, 0, byt, peer, -5, world)))
	s.row("Send(bad count)", s.err(b.Send(nil, -1, byt, peer, 0, world)))

	// Nonblocking point-to-point.
	rbuf := make([]byte, 4)
	rr, err := b.Irecv(rbuf, 1, i32, peer, 1, world)
	s.row("Irecv(<- peer, tag 1)", s.h(rr, err))
	sr, err := b.Isend(one(10+me), 1, i32, peer, 1, world)
	s.row("Isend(-> peer, tag 1)", s.h(sr, err))
	st = abi.Status{}
	err = b.Wait(rr, &st)
	s.row("Wait(irecv)", fmt.Sprintf("%x %s", rbuf, s.st(st, err)))
	st = abi.Status{}
	err = b.Wait(sr, &st)
	s.row("Wait(isend)", s.st(st, err))
	freedReq := rr

	rr, err = b.Irecv(rbuf, 1, i32, peer, 2, world)
	s.row("Irecv(<- peer, tag 2)", s.h(rr, err))
	sr, err = b.Isend(one(20+me), 1, i32, peer, 2, world)
	s.row("Isend(-> peer, tag 2)", s.h(sr, err))
	// Ranks share one token, so a Test loop would starve the peer: the
	// barrier delivers tag 2 first instead.
	s.row("Barrier(world)", s.err(b.Barrier(world)))
	for _, r := range []struct {
		name string
		h    abi.Handle
	}{{"irecv", rr}, {"isend", sr}} {
		st = abi.Status{}
		done, err := b.Test(r.h, &st)
		s.row("Test("+r.name+")", fmt.Sprintf("%t %s", done, s.st(st, err)))
	}

	rr, err = b.Irecv(rbuf, 1, i32, peer, 3, world)
	s.row("Irecv(<- peer, tag 3)", s.h(rr, err))
	st = abi.Status{}
	done, err := b.Test(rr, &st)
	s.row("Test(irecv, nothing sent yet)", fmt.Sprintf("%t %s", done, s.st(st, err)))
	s.row("Barrier(world)", s.err(b.Barrier(world)))
	sr, err = b.Isend(one(30+me), 1, i32, peer, 3, world)
	s.row("Isend(-> peer, tag 3)", s.h(sr, err))
	sts := make([]abi.Status, 2)
	err = b.Waitall([]abi.Handle{rr, sr}, sts)
	s.row("Waitall([irecv isend], statuses)", fmt.Sprintf("%s %s %s", status(sts[0]), status(sts[1]), s.err(err)))
	rr, err = b.Irecv(rbuf, 1, i32, peer, 4, world)
	s.row("Irecv(<- peer, tag 4)", s.h(rr, err))
	sr, err = b.Isend(one(40+me), 1, i32, peer, 4, world)
	s.row("Isend(-> peer, tag 4)", s.h(sr, err))
	s.row("Waitall([irecv isend], nil)", s.err(b.Waitall([]abi.Handle{rr, sr}, nil)))
	sts = make([]abi.Status, 2)
	err = b.Waitall([]abi.Handle{reqNull, reqNull}, sts)
	s.row("Waitall([REQUEST_NULL REQUEST_NULL])", fmt.Sprintf("%s %s %s", status(sts[0]), status(sts[1]), s.err(err)))
	st = abi.Status{}
	err = b.Wait(reqNull, &st)
	s.row("Wait(REQUEST_NULL)", s.st(st, err))
	st = abi.Status{}
	done, err = b.Test(reqNull, &st)
	s.row("Test(REQUEST_NULL)", fmt.Sprintf("%t %s", done, s.st(st, err)))
	pn, err := b.Irecv(rbuf, 1, i32, procNull, 0, world)
	s.row("Irecv(<- PROC_NULL)", s.h(pn, err))
	st = abi.Status{}
	err = b.Wait(pn, &st)
	s.row("Wait(irecv PROC_NULL)", s.st(st, err))

	// Probes.
	if me == 0 {
		s.row("Send(2 int32 -> 1, tag 11)", s.err(b.Send(abi.Int32Bytes([]int32{4, 5}), 2, i32, 1, 11, world)))
	} else {
		st = abi.Status{}
		err = b.Probe(anySource, 11, world, &st)
		s.row("Probe(ANY_SOURCE, tag 11)", s.st(st, err))
		st = abi.Status{}
		found, err := b.Iprobe(0, 11, world, &st)
		s.row("Iprobe(0, tag 11)", fmt.Sprintf("%t %s", found, s.st(st, err)))
		st = abi.Status{}
		err = b.Recv(make([]byte, 8), 2, i32, 0, 11, world, &st)
		s.row("Recv(2 int32 <- 0, tag 11)", s.st(st, err))
	}
	st = abi.Status{}
	found, err := b.Iprobe(peer, 12, world, &st)
	s.row("Iprobe(peer, tag 12: never sent)", fmt.Sprintf("%t %s", found, s.st(st, err)))
	st = abi.Status{}
	found, err = b.Iprobe(procNull, anyTag, world, &st)
	s.row("Iprobe(PROC_NULL)", fmt.Sprintf("%t %s", found, s.st(st, err)))
	st = abi.Status{}
	err = b.Probe(procNull, 0, world, &st)
	s.row("Probe(PROC_NULL)", s.st(st, err))

	// Collectives.
	s.row("Barrier(world)", s.err(b.Barrier(world)))
	bb := make([]byte, 8)
	if me == 0 {
		copy(bb, abi.Int32Bytes([]int32{5, 6}))
	}
	err = b.Bcast(bb, 2, i32, 0, world)
	s.row("Bcast(2 int32, root 0)", fmt.Sprintf("%x %s", bb, s.err(err)))
	s.row("Bcast(bad root)", s.err(b.Bcast(bb, 2, i32, 9, world)))
	rb := make([]byte, 8)
	err = b.Reduce(abi.Int32Bytes([]int32{int32(me + 1), 7}), rb, 2, i32, sum, 1, world)
	s.row("Reduce(sum, root 1)", fmt.Sprintf("%x %s", rb, s.err(err)))
	rb = make([]byte, 8)
	err = b.Allreduce(abi.Float64Bytes([]float64{float64(me) - 0.5}), rb, 1, f64, maxOp, world)
	s.row("Allreduce(max)", fmt.Sprintf("%x %s", rb, s.err(err)))
	var gb []byte
	if me == 0 {
		gb = make([]byte, 8)
	}
	err = b.Gather(one(3*me+1), 1, i32, gb, 1, i32, 0, world)
	s.row("Gather(root 0)", fmt.Sprintf("%x %s", gb, s.err(err)))
	rb = make([]byte, 8)
	err = b.Allgather(one(me+100), 1, i32, rb, 1, i32, world)
	s.row("Allgather", fmt.Sprintf("%x %s", rb, s.err(err)))
	var sb []byte
	if me == 1 {
		sb = abi.Int32Bytes([]int32{70, 71})
	}
	rb = make([]byte, 4)
	err = b.Scatter(sb, 1, i32, rb, 1, i32, 1, world)
	s.row("Scatter(root 1)", fmt.Sprintf("%x %s", rb, s.err(err)))
	rb = make([]byte, 8)
	err = b.Alltoall(abi.Int32Bytes([]int32{int32(10 * me), int32(10*me + 1)}), 1, i32, rb, 1, i32, world)
	s.row("Alltoall", fmt.Sprintf("%x %s", rb, s.err(err)))

	// Communicators and groups.
	dup, err := b.CommDup(world)
	s.row("CommDup(world)", s.h(dup, err))
	s.row("CommSize(dup)", s.n(b.CommSize(dup)))
	split, err := b.CommSplit(world, me, 0)
	s.row("CommSplit(world, color rank)", s.h(split, err))
	s.row("CommSize(split)", s.n(b.CommSize(split)))
	color := 0
	if me == 1 {
		color = undefined
	}
	splitU, err := b.CommSplit(world, color, 0)
	s.row("CommSplit(world, UNDEFINED on 1)", s.h(splitU, err))
	g, err := b.CommGroup(world)
	s.row("CommGroup(world)", s.h(g, err))
	s.row("GroupSize(g)", s.n(b.GroupSize(g)))
	s.row("GroupRank(g)", s.n(b.GroupRank(g)))
	g0, err := b.GroupIncl(g, []int{0})
	s.row("GroupIncl(g, [0])", s.h(g0, err))
	s.row("GroupSize(g0)", s.n(b.GroupSize(g0)))
	s.row("GroupRank(g0)", s.n(b.GroupRank(g0)))
	g1, err := b.GroupExcl(g, []int{0})
	s.row("GroupExcl(g, [0])", s.h(g1, err))
	tr, err := b.GroupTranslateRanks(g0, []int{0}, g)
	s.row("GroupTranslateRanks(g0, [0], g)", fmt.Sprintf("%v %s", tr, s.err(err)))
	tr, err = b.GroupTranslateRanks(g, []int{0, 1}, g1)
	s.row("GroupTranslateRanks(g, [0 1], g1)", fmt.Sprintf("%v %s", tr, s.err(err)))
	tr, err = b.GroupTranslateRanks(g, []int{2}, g1)
	s.row("GroupTranslateRanks(g, [2], g1)", fmt.Sprintf("%v %s", tr, s.err(err)))
	c0, err := b.CommCreate(world, g0)
	s.row("CommCreate(world, g0)", s.h(c0, err))
	s.row("CommSize(c0)", s.n(b.CommSize(c0)))
	s.row("GroupSize(GROUP_EMPTY)", s.n(b.GroupSize(groupEmpty)))
	s.row("GroupRank(GROUP_EMPTY)", s.n(b.GroupRank(groupEmpty)))
	ce, err := b.CommCreate(world, groupEmpty)
	s.row("CommCreate(world, GROUP_EMPTY)", s.h(ce, err))
	s.row("CommFree(dup)", s.err(b.CommFree(dup)))
	s.row("CommFree(split)", s.err(b.CommFree(split)))
	s.row("CommFree(splitU)", s.err(b.CommFree(splitU)))
	s.row("CommFree(c0)", s.err(b.CommFree(c0)))
	s.row("CommFree(world)", s.err(b.CommFree(world)))
	s.row("CommFree(self)", s.err(b.CommFree(self)))
	s.row("GroupFree(g0)", s.err(b.GroupFree(g0)))
	s.row("GroupFree(g1)", s.err(b.GroupFree(g1)))
	s.row("GroupFree(GROUP_EMPTY)", s.err(b.GroupFree(groupEmpty)))
	s.row("GroupSize(GROUP_EMPTY) after its free", s.n(b.GroupSize(groupEmpty)))
	ce, err = b.CommCreate(world, groupEmpty)
	s.row("CommCreate(world, GROUP_EMPTY) after its free", s.h(ce, err))

	// Derived datatypes.
	tc, err := b.TypeContiguous(2, i32)
	s.row("TypeContiguous(2, int32)", s.h(tc, err))
	tv, err := b.TypeVector(2, 1, 3, i32)
	s.row("TypeVector(2, 1, 3, int32)", s.h(tv, err))
	ti, err := b.TypeIndexed([]int{1, 2}, []int{0, 3}, i32)
	s.row("TypeIndexed([1 2], [0 3], int32)", s.h(ti, err))
	ts, err := b.TypeCreateStruct([]int{1, 1}, []int{0, 8}, []abi.Handle{i32, f64})
	s.row("TypeCreateStruct([1 1], [0 8], [int32 float64])", s.h(ts, err))
	for _, dt := range []struct {
		name string
		h    abi.Handle
	}{{"contiguous", tc}, {"vector", tv}, {"indexed", ti}, {"struct", ts}} {
		s.row("TypeCommit("+dt.name+")", s.err(b.TypeCommit(dt.h)))
		s.row("TypeSize("+dt.name+")", s.n(b.TypeSize(dt.h)))
		s.row("TypeExtent("+dt.name+")", s.n(b.TypeExtent(dt.h)))
	}
	s.row("TypeSize(int32)", s.n(b.TypeSize(i32)))
	s.row("TypeExtent(float64)", s.n(b.TypeExtent(f64)))
	if me == 0 {
		s.row("Send(vector -> 1, tag 20)", s.err(b.Send(abi.Int32Bytes([]int32{7, 0, 0, 8}), 1, tv, 1, 20, world)))
	} else {
		dst := make([]byte, 16)
		st = abi.Status{}
		err = b.Recv(dst, 1, tv, 0, 20, world, &st)
		s.row("Recv(vector <- 0, tag 20)", fmt.Sprintf("%x %s", dst, s.st(st, err)))
		s.row("GetCount(status, vector)", s.n(b.GetCount(&st, tv)))
		s.row("GetCount(status, int32)", s.n(b.GetCount(&st, i32)))
		s.row("GetCount(status, float64)", s.n(b.GetCount(&st, f64)))
	}
	s.row("GetCount(5 bytes, int32)", s.n(b.GetCount(&abi.Status{CountBytes: 5}, i32)))
	s.row("GetCount(0x100000002 bytes, byte)", s.n(b.GetCount(&abi.Status{CountBytes: 0x1_0000_0002}, byt)))
	for _, dt := range []struct {
		name string
		h    abi.Handle
	}{{"contiguous", tc}, {"vector", tv}, {"indexed", ti}, {"struct", ts}, {"int32", i32}} {
		s.row("TypeFree("+dt.name+")", s.err(b.TypeFree(dt.h)))
	}

	// Reduction operators.
	uo, err := b.OpCreate(transcriptSum, true)
	s.row("OpCreate(user sum)", s.h(uo, err))
	rb = make([]byte, 4)
	err = b.Allreduce(one(me+5), rb, 1, i32, uo, world)
	s.row("Allreduce(user sum)", fmt.Sprintf("%x %s", rb, s.err(err)))
	s.row("OpFree(user sum)", s.err(b.OpFree(uo)))
	s.row("OpFree(SUM)", s.err(b.OpFree(sum)))
	missing, err := b.OpCreate("mpicore.transcript.missing", true)
	s.row("OpCreate(unregistered)", s.h(missing, err))

	// ULFM.
	rv, err := b.CommDup(world)
	s.row("CommDup(world) for revocation", s.h(rv, err))
	agreed, err := b.CommAgree(rv, 0b110|uint64(me))
	s.row("CommAgree(rv)", fmt.Sprintf("%#b %s", agreed, s.err(err)))
	s.row("CommRevoke(rv)", s.err(b.CommRevoke(rv)))
	s.row("Barrier(rv) revoked", s.err(b.Barrier(rv)))
	s.row("Send(rv) revoked", s.err(b.Send(nil, 0, byt, peer, 0, rv)))
	s.row("CommSize(rv) revoked", s.n(b.CommSize(rv)))
	agreed, err = b.CommAgree(rv, 1)
	s.row("CommAgree(rv) revoked", fmt.Sprintf("%#b %s", agreed, s.err(err)))
	sh, err := b.CommShrink(rv)
	s.row("CommShrink(rv)", s.h(sh, err))
	s.row("CommSize(shrunk)", s.n(b.CommSize(sh)))
	s.row("CommFailureAck(rv)", s.err(b.CommFailureAck(rv)))

	// Every handle-taking call, given the null, a never-issued and a freed
	// handle of each handle argument's class in turn.
	fc, err := b.CommDup(world)
	s.row("CommDup(world) to free", s.h(fc, err))
	s.row("CommFree(it)", s.err(b.CommFree(fc)))
	fg, err := b.CommGroup(world)
	s.row("CommGroup(world) to free", s.h(fg, err))
	s.row("GroupFree(it)", s.err(b.GroupFree(fg)))
	ft, err := b.TypeContiguous(1, i32)
	s.row("TypeContiguous(1, int32) to free", s.h(ft, err))
	s.row("TypeFree(it)", s.err(b.TypeFree(ft)))
	fo, err := b.OpCreate(transcriptSum, true)
	s.row("OpCreate(user sum) to free", s.h(fo, err))
	s.row("OpFree(it)", s.err(b.OpFree(fo)))
	nulls := map[abi.Class]abi.Sym{abi.ClassComm: abi.SymCommNull, abi.ClassGroup: abi.SymGroupNull,
		abi.ClassType: abi.SymTypeNull, abi.ClassOp: abi.SymOpNull, abi.ClassRequest: abi.SymRequestNull}
	freed := map[abi.Class]abi.Handle{abi.ClassComm: fc, abi.ClassGroup: fg,
		abi.ClassType: ft, abi.ClassOp: fo, abi.ClassRequest: freedReq}
	probe := func(call string, class abi.Class, do func(h abi.Handle) string) {
		null := lk(nulls[class])
		for i, h := range [...]abi.Handle{null, null + 0x7777, freed[class]} {
			s.row(fmt.Sprintf("%s[%s]", call, [...]string{"null", "never issued", "freed"}[i]), do(h))
		}
	}
	comm, dtype, group, op, req := abi.ClassComm, abi.ClassType, abi.ClassGroup, abi.ClassOp, abi.ClassRequest
	pbuf := make([]byte, 8)
	withStatus := func(f func(*abi.Status) error) string {
		st := abi.Status{}
		err := f(&st)
		return s.st(st, err)
	}
	probe("Send(comm)", comm, func(h abi.Handle) string { return s.err(b.Send(pbuf, 1, i32, peer, 30, h)) })
	probe("Send(dtype)", dtype, func(h abi.Handle) string { return s.err(b.Send(pbuf, 1, h, peer, 30, world)) })
	probe("Recv(comm)", comm, func(h abi.Handle) string {
		return withStatus(func(st *abi.Status) error { return b.Recv(pbuf, 1, i32, peer, 30, h, st) })
	})
	probe("Recv(dtype)", dtype, func(h abi.Handle) string {
		return withStatus(func(st *abi.Status) error { return b.Recv(pbuf, 1, h, peer, 30, world, st) })
	})
	probe("Isend(comm)", comm, func(h abi.Handle) string { return s.h(b.Isend(pbuf, 1, i32, peer, 30, h)) })
	probe("Isend(dtype)", dtype, func(h abi.Handle) string { return s.h(b.Isend(pbuf, 1, h, peer, 30, world)) })
	probe("Irecv(comm)", comm, func(h abi.Handle) string { return s.h(b.Irecv(pbuf, 1, i32, peer, 30, h)) })
	probe("Irecv(dtype)", dtype, func(h abi.Handle) string { return s.h(b.Irecv(pbuf, 1, h, peer, 30, world)) })
	probe("Wait(req)", req, func(h abi.Handle) string {
		return withStatus(func(st *abi.Status) error { return b.Wait(h, st) })
	})
	probe("Test(req)", req, func(h abi.Handle) string {
		st := abi.Status{}
		done, err := b.Test(h, &st)
		return fmt.Sprintf("%t %s", done, s.st(st, err))
	})
	probe("Waitall([req])", req, func(h abi.Handle) string {
		sts := make([]abi.Status, 1)
		err := b.Waitall([]abi.Handle{h}, sts)
		return s.st(sts[0], err)
	})
	probe("Probe(comm)", comm, func(h abi.Handle) string {
		return withStatus(func(st *abi.Status) error { return b.Probe(peer, 30, h, st) })
	})
	probe("Iprobe(comm)", comm, func(h abi.Handle) string {
		st := abi.Status{}
		found, err := b.Iprobe(peer, 30, h, &st)
		return fmt.Sprintf("%t %s", found, s.st(st, err))
	})
	probe("Barrier(comm)", comm, func(h abi.Handle) string { return s.err(b.Barrier(h)) })
	probe("Bcast(comm)", comm, func(h abi.Handle) string { return s.err(b.Bcast(pbuf, 1, i32, 0, h)) })
	probe("Bcast(dtype)", dtype, func(h abi.Handle) string { return s.err(b.Bcast(pbuf, 1, h, 0, self)) })
	probe("Reduce(comm)", comm, func(h abi.Handle) string { return s.err(b.Reduce(one(1), pbuf, 1, i32, sum, 0, h)) })
	probe("Reduce(dtype)", dtype, func(h abi.Handle) string { return s.err(b.Reduce(one(1), pbuf, 1, h, sum, 0, self)) })
	probe("Reduce(op)", op, func(h abi.Handle) string { return s.err(b.Reduce(one(1), pbuf, 1, i32, h, 0, self)) })
	probe("Allreduce(comm)", comm, func(h abi.Handle) string { return s.err(b.Allreduce(one(1), pbuf, 1, i32, sum, h)) })
	probe("Allreduce(dtype)", dtype, func(h abi.Handle) string { return s.err(b.Allreduce(one(1), pbuf, 1, h, sum, self)) })
	probe("Allreduce(op)", op, func(h abi.Handle) string { return s.err(b.Allreduce(one(1), pbuf, 1, i32, h, self)) })
	probe("Gather(comm)", comm, func(h abi.Handle) string { return s.err(b.Gather(one(1), 1, i32, pbuf, 1, i32, 0, h)) })
	probe("Gather(stype)", dtype, func(h abi.Handle) string { return s.err(b.Gather(one(1), 1, h, pbuf, 1, i32, 0, self)) })
	probe("Gather(rtype)", dtype, func(h abi.Handle) string { return s.err(b.Gather(one(1), 1, i32, pbuf, 1, h, 0, self)) })
	probe("Allgather(comm)", comm, func(h abi.Handle) string { return s.err(b.Allgather(one(1), 1, i32, pbuf, 1, i32, h)) })
	probe("Allgather(stype)", dtype, func(h abi.Handle) string { return s.err(b.Allgather(one(1), 1, h, pbuf, 1, i32, self)) })
	probe("Allgather(rtype)", dtype, func(h abi.Handle) string { return s.err(b.Allgather(one(1), 1, i32, pbuf, 1, h, self)) })
	probe("Scatter(comm)", comm, func(h abi.Handle) string { return s.err(b.Scatter(one(1), 1, i32, pbuf, 1, i32, 0, h)) })
	probe("Scatter(stype)", dtype, func(h abi.Handle) string { return s.err(b.Scatter(one(1), 1, h, pbuf, 1, i32, 0, self)) })
	probe("Scatter(rtype)", dtype, func(h abi.Handle) string { return s.err(b.Scatter(one(1), 1, i32, pbuf, 1, h, 0, self)) })
	probe("Alltoall(comm)", comm, func(h abi.Handle) string { return s.err(b.Alltoall(one(1), 1, i32, pbuf, 1, i32, h)) })
	probe("Alltoall(stype)", dtype, func(h abi.Handle) string { return s.err(b.Alltoall(one(1), 1, h, pbuf, 1, i32, self)) })
	probe("Alltoall(rtype)", dtype, func(h abi.Handle) string { return s.err(b.Alltoall(one(1), 1, i32, pbuf, 1, h, self)) })
	probe("CommSize(comm)", comm, func(h abi.Handle) string { return s.n(b.CommSize(h)) })
	probe("CommRank(comm)", comm, func(h abi.Handle) string { return s.n(b.CommRank(h)) })
	probe("CommDup(comm)", comm, func(h abi.Handle) string { return s.h(b.CommDup(h)) })
	probe("CommSplit(comm)", comm, func(h abi.Handle) string { return s.h(b.CommSplit(h, 0, 0)) })
	probe("CommCreate(comm)", comm, func(h abi.Handle) string { return s.h(b.CommCreate(h, g)) })
	probe("CommCreate(group)", group, func(h abi.Handle) string { return s.h(b.CommCreate(world, h)) })
	probe("CommGroup(comm)", comm, func(h abi.Handle) string { return s.h(b.CommGroup(h)) })
	probe("CommFree(comm)", comm, func(h abi.Handle) string { return s.err(b.CommFree(h)) })
	probe("GroupSize(group)", group, func(h abi.Handle) string { return s.n(b.GroupSize(h)) })
	probe("GroupRank(group)", group, func(h abi.Handle) string { return s.n(b.GroupRank(h)) })
	probe("GroupIncl(group)", group, func(h abi.Handle) string { return s.h(b.GroupIncl(h, []int{0})) })
	probe("GroupExcl(group)", group, func(h abi.Handle) string { return s.h(b.GroupExcl(h, []int{0})) })
	probe("GroupTranslateRanks(g1)", group, func(h abi.Handle) string {
		tr, err := b.GroupTranslateRanks(h, []int{0}, g)
		return fmt.Sprintf("%v %s", tr, s.err(err))
	})
	probe("GroupTranslateRanks(g2)", group, func(h abi.Handle) string {
		tr, err := b.GroupTranslateRanks(g, []int{0}, h)
		return fmt.Sprintf("%v %s", tr, s.err(err))
	})
	probe("GroupFree(group)", group, func(h abi.Handle) string { return s.err(b.GroupFree(h)) })
	probe("TypeContiguous(inner)", dtype, func(h abi.Handle) string { return s.h(b.TypeContiguous(2, h)) })
	probe("TypeVector(inner)", dtype, func(h abi.Handle) string { return s.h(b.TypeVector(2, 1, 2, h)) })
	probe("TypeIndexed(inner)", dtype, func(h abi.Handle) string { return s.h(b.TypeIndexed([]int{1}, []int{0}, h)) })
	probe("TypeCreateStruct(types[1])", dtype, func(h abi.Handle) string {
		return s.h(b.TypeCreateStruct([]int{1, 1}, []int{0, 8}, []abi.Handle{i32, h}))
	})
	probe("TypeCommit(dtype)", dtype, func(h abi.Handle) string { return s.err(b.TypeCommit(h)) })
	probe("TypeFree(dtype)", dtype, func(h abi.Handle) string { return s.err(b.TypeFree(h)) })
	probe("TypeSize(dtype)", dtype, func(h abi.Handle) string { return s.n(b.TypeSize(h)) })
	probe("TypeExtent(dtype)", dtype, func(h abi.Handle) string { return s.n(b.TypeExtent(h)) })
	probe("GetCount(dtype)", dtype, func(h abi.Handle) string { return s.n(b.GetCount(&abi.Status{CountBytes: 8}, h)) })
	probe("CommRevoke(comm)", comm, func(h abi.Handle) string { return s.err(b.CommRevoke(h)) })
	probe("CommShrink(comm)", comm, func(h abi.Handle) string { return s.h(b.CommShrink(h)) })
	probe("CommAgree(comm)", comm, func(h abi.Handle) string {
		v, err := b.CommAgree(h, 1)
		return fmt.Sprintf("%#b %s", v, s.err(err))
	})
	probe("CommFailureAck(comm)", comm, func(h abi.Handle) string { return s.err(b.CommFailureAck(h)) })
	probe("CommFailureGetAcked(comm)", comm, func(h abi.Handle) string { return s.h(b.CommFailureGetAcked(h)) })
	probe("OpFree(op)", op, func(h abi.Handle) string { return s.err(b.OpFree(h)) })

	// Empty groups.
	ge, err := b.GroupIncl(g, nil)
	s.row("GroupIncl(g, [])", s.h(ge, err))
	s.row("GroupSize(it)", s.n(b.GroupSize(ge)))
	ge, err = b.GroupExcl(g, []int{0, 1})
	s.row("GroupExcl(g, [0 1])", s.h(ge, err))
	s.row("GroupSize(it)", s.n(b.GroupSize(ge)))
	ga, err := b.CommFailureGetAcked(rv)
	s.row("CommFailureGetAcked(rv): no failures", s.h(ga, err))
	s.row("GroupSize(it)", s.n(b.GroupSize(ga)))
	s.row("GroupFree(g)", s.err(b.GroupFree(g)))

	// Sendrecv, late: whether it mints a request shows in the serials
	// minted after it.
	rbuf = make([]byte, 4)
	st = abi.Status{}
	err = b.Sendrecv(one(50+me), 1, i32, peer, 40, rbuf, 1, i32, peer, 40, world, &st)
	s.row("Sendrecv(<-> peer, tag 40)", fmt.Sprintf("%x %s", rbuf, s.st(st, err)))
	st = abi.Status{}
	err = b.Sendrecv(one(1), 1, i32, procNull, 0, rbuf, 1, i32, procNull, 0, world, &st)
	s.row("Sendrecv(<-> PROC_NULL)", s.st(st, err))
	probe("Sendrecv(comm)", comm, func(h abi.Handle) string {
		return withStatus(func(st *abi.Status) error {
			return b.Sendrecv(one(1), 1, i32, procNull, 0, rbuf, 1, i32, procNull, 0, h, st)
		})
	})
	probe("Sendrecv(stype)", dtype, func(h abi.Handle) string {
		return withStatus(func(st *abi.Status) error {
			return b.Sendrecv(one(1), 1, h, procNull, 0, rbuf, 1, i32, procNull, 0, world, st)
		})
	})
	probe("Sendrecv(rtype)", dtype, func(h abi.Handle) string {
		return withStatus(func(st *abi.Status) error {
			return b.Sendrecv(one(1), 1, i32, procNull, 0, rbuf, 1, h, procNull, 0, world, st)
		})
	})
	after, err := b.Isend(nil, 0, byt, procNull, 0, world)
	s.row("Isend(-> PROC_NULL) after Sendrecv", s.h(after, err))
	st = abi.Status{}
	err = b.Wait(after, &st)
	s.row("Wait(it)", s.st(st, err))

	// Abort, then a request still live after progress fails.
	s.row("Barrier(world)", s.err(b.Barrier(world)))
	pend, err := b.Irecv(rbuf, 1, i32, peer, 77, world)
	s.row("Irecv(<- peer, tag 77: never sent)", s.h(pend, err))
	st = abi.Status{}
	done, err = b.Test(pend, &st)
	s.row("Test(it)", fmt.Sprintf("%t %s", done, s.st(st, err)))
	s.row("Abort(world, 3)", s.err(b.Abort(world, 3)))
	st = abi.Status{}
	err = b.Wait(pend, &st)
	s.row("Wait(it) after abort", s.st(st, err))
	st = abi.Status{}
	err = b.Wait(pend, &st)
	s.row("Wait(it) again", s.st(st, err))
	sts = make([]abi.Status, 1)
	err = b.Waitall([]abi.Handle{pend}, sts)
	s.row("Waitall([it])", s.st(sts[0], err))
	st = abi.Status{}
	err = b.Wait(pend, &st)
	s.row("Wait(it) after Waitall", s.st(st, err))
}
