package mpicore_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/abi/abitest"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mana"
	"repro/internal/mpich"
	"repro/internal/mukautuva"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/stdabi"
	"repro/internal/types"
	"repro/internal/wi4mpi"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from this build")

// nativeImpl is one implementation's native function table and dialect.
type nativeImpl struct {
	name string
	bind func(w *fabric.World, rank int) abi.FuncTable
	d    *abi.Dialect
}

var nativeImpls = []nativeImpl{
	{"mpich", func(w *fabric.World, r int) abi.FuncTable { return mpich.Impl.Init(w, r) }, mpich.Dialect},
	{"openmpi", func(w *fabric.World, r int) abi.FuncTable { return openmpi.Impl.Init(w, r) }, openmpi.Dialect},
	{"stdabi", func(w *fabric.World, r int) abi.FuncTable { return stdabi.Impl.Init(w, r) }, abi.Std},
}

const transcriptSum = "mpicore.transcript.sum"

func init() {
	if err := ops.RegisterUser(transcriptSum, true,
		func(acc, in []byte, k types.Kind, count int) { _ = ops.Apply(ops.OpSum, k, acc, in, count) }); err != nil {
		panic(err)
	}
}

// stack is one of the 18 binding stacks core builds: an implementation,
// how the application binds to it, and whether MANA sits on top.
type stack struct {
	impl nativeImpl
	abi  string // "native", "mukautuva" or "wi4mpi"
	mana bool
}

func (st stack) String() string {
	ckpt := "none"
	if st.mana {
		ckpt = "mana"
	}
	return st.impl.name + "+" + st.abi + "+" + ckpt
}

// shimUnderMana reports a charging translator beneath MANA.
func (st stack) shimUnderMana() bool { return st.mana && st.abi != "native" }

// dialect is the upper dialect, whose error codes an application sees:
// the implementation's own for a native binding, MPICH's through Wi4MPI,
// the standard ABI's through Mukautuva or MANA.
func (st stack) dialect() *abi.Dialect {
	switch {
	case st.mana || st.abi == "mukautuva":
		return abi.Std
	case st.abi == "wi4mpi":
		return mpich.Dialect
	}
	return st.impl.d
}

func allStacks() []stack {
	var out []stack
	for _, impl := range nativeImpls {
		for _, bind := range []string{"native", "mukautuva", "wi4mpi"} {
			for _, m := range []bool{false, true} {
				out = append(out, stack{impl, bind, m})
			}
		}
	}
	return out
}

// build assembles one rank's stack the way core's buildTable does, with
// a spy directly over the implementation of every stack that translates.
func (st stack) build(w *fabric.World, rank int) (abi.FuncTable, *abitest.Spy) {
	lower := st.impl.bind(w, rank)
	if st.abi == "native" && !st.mana {
		return lower, nil
	}
	clock := w.Endpoint(rank).Clock()
	sp := abitest.New(lower, clock)
	var table abi.FuncTable = sp
	below := st.impl.d
	switch st.abi {
	case "mukautuva":
		table, below = mukautuva.New(sp, below, clock), abi.Std
	case "wi4mpi":
		table, below = wi4mpi.New(sp, below, clock), mpich.Dialect
	}
	if !st.mana {
		return table, sp
	}
	return mana.NewWrapper(table, below, w, rank, mana.KernelPre5_9), sp
}

// units are the charges of st's top translating layer and of a shim
// beneath MANA: each layer's per-call constant, MANA's plus the FSGSBASE
// cost of the paper's kernel. That is more than three charges of either
// shim, so the clock time a call spends outside the implementation
// decodes into call counts.
func (st stack) units() (top, shim time.Duration) {
	switch st.abi {
	case "mukautuva":
		shim = mukautuva.PerCall
	case "wi4mpi":
		shim = wi4mpi.PerCall
	}
	if !st.mana {
		return shim, shim
	}
	top = mana.VidCost + mana.KernelPre5_9.CallCost()
	if shim == 0 {
		shim = top
	}
	return top, shim
}

// scribe records one rank's side of a transcript on one stack.
type scribe struct {
	on    stack
	rank  int
	spy   *abitest.Spy
	clock *simnet.Clock
	rows  []row
	// named maps each predefined handle to its kind of answer: "null", or
	// the symbol it resolves. minted maps every other handle to the row
	// that first returned it.
	named  map[abi.Handle]string
	minted map[abi.Handle]int
	// The upper dialect's sentinels, rendered by name in neutral columns.
	undefined, procNull, anySource, anyTag int
	// pending accumulates the current row's neutral outcome; mark and
	// inside are the clock and the spy's inside time at the last row.
	pending string
	mark    simnet.Time
	inside  time.Duration
	faults  []string
}

// row is one call's outcome: the neutral part every stack must agree on,
// the raw part in the stack's own vocabulary, and the translation
// charges it cost (by the top layer, and by a shim under MANA).
type row struct {
	call, neutral, raw string
	charges            [2]int
}

func newScribe(st stack, rank int, b abi.FuncTable, sp *abitest.Spy, clock *simnet.Clock) *scribe {
	s := &scribe{on: st, rank: rank, spy: sp, clock: clock, mark: clock.Now(),
		named: make(map[abi.Handle]string), minted: make(map[abi.Handle]int),
		undefined: b.LookupInt(abi.IntUndefined), procNull: b.LookupInt(abi.IntProcNull),
		anySource: b.LookupInt(abi.IntAnySource), anyTag: b.LookupInt(abi.IntAnyTag)}
	for _, sym := range predefinedSyms() {
		s.named[b.Lookup(sym)] = fmt.Sprintf("predefined(%d)", sym)
	}
	for _, sym := range []abi.Sym{abi.SymCommNull, abi.SymGroupNull, abi.SymTypeNull, abi.SymOpNull, abi.SymRequestNull} {
		s.named[b.Lookup(sym)] = "null"
	}
	if sp != nil {
		s.inside = sp.Inside
		if s.undefined == abitest.SkewUndefined {
			s.faults = append(s.faults, "the upper MPI_UNDEFINED equals the spy's skewed one")
		}
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

// row closes one call: raw is its outcome in the stack's vocabulary, and
// seen are further values every stack must agree on (buffers, flags).
func (s *scribe) row(call, raw string, seen ...any) {
	for _, v := range seen {
		switch v := v.(type) {
		case []byte:
			s.put("%x", v)
		case uint64:
			s.put("%#b", v)
		default:
			s.put("%v", v)
		}
	}
	r := row{call: call, neutral: strings.TrimPrefix(s.pending, " "), raw: raw}
	if s.spy != nil {
		// Time outside the implementation is translation charges only.
		outside := s.clock.Now().Sub(s.mark) - (s.spy.Inside - s.inside)
		top, shim := s.on.units()
		r.charges = [2]int{int(outside / top), int(outside % top / shim)}
		if outside%top%shim != 0 {
			s.faults = append(s.faults, fmt.Sprintf("%s: %v outside the implementation is no whole number of charges", call, outside))
		}
		s.checkSpy(call)
		s.inside = s.spy.Inside
	}
	s.rows = append(s.rows, r)
	s.pending, s.mark = "", s.clock.Now()
}

// unknownRows are the probes that hand a translator a handle it never
// issued; the implementation beneath must see that class's null, except
// for a request, which the translator answers alone.
var unknownRows = map[string]abi.Sym{
	"Barrier(comm)[never issued]":    abi.SymCommNull,
	"GroupSize(group)[never issued]": abi.SymGroupNull,
	"TypeSize(dtype)[never issued]":  abi.SymTypeNull,
	"OpFree(op)[never issued]":       abi.SymOpNull,
	"Wait(req)[never issued]":        abi.SymRequestNull,
}

// checkSpy holds what the spy saw during the call just recorded to the
// rows a real implementation cannot check.
func (s *scribe) checkSpy(call string) {
	sp := s.spy
	defer func() { sp.Handles, sp.Colors = nil, nil }()
	if sym, ok := unknownRows[call]; ok {
		var want []abi.Handle
		if sym != abi.SymRequestNull {
			want = []abi.Handle{sp.FuncTable.Lookup(sym)}
		}
		if fmt.Sprint(sp.Handles) != fmt.Sprint(want) {
			s.faults = append(s.faults, fmt.Sprintf("%s: the implementation saw %v, want %v", call, sp.Handles, want))
		}
	}
	if call == "CommSplit(world, UNDEFINED on 1)" {
		want := []int{0}
		if s.rank == 1 {
			want = []int{abitest.SkewUndefined}
		}
		if fmt.Sprint(sp.Colors) != fmt.Sprint(want) {
			s.faults = append(s.faults, fmt.Sprintf("%s: the implementation saw colours %v, want %v", call, sp.Colors, want))
		}
	}
}

func (s *scribe) put(format string, a ...any) { s.pending += " " + fmt.Sprintf(format, a...) }

// err renders a return: its error class (neutral) and the code the
// application sees for it (raw), with the implementation's own message on
// a native binding.
func (s *scribe) err(err error) string {
	c := abi.ClassOf(err)
	s.put("%v", c)
	switch {
	case err == nil:
		return "ok"
	case s.on.abi == "native" && !s.on.mana:
		return fmt.Sprintf("err%d %q", s.on.dialect().Codes.CodeOf(c), err.Error())
	}
	return fmt.Sprintf("err%d", s.on.dialect().Codes.CodeOf(c))
}

func (s *scribe) h(h abi.Handle, err error) string {
	kind, ok := s.named[h]
	if !ok {
		if _, seen := s.minted[h]; !seen {
			s.minted[h] = len(s.rows)
		}
		kind = fmt.Sprintf("minted@%d", s.minted[h])
	}
	s.put("%s", kind)
	return fmt.Sprintf("%#x %s", uint64(h), s.err(err))
}

func (s *scribe) n(n int, err error) string {
	s.put("%s", s.sentinel(n, s.undefined, "UNDEFINED"))
	return fmt.Sprintf("%d %s", n, s.err(err))
}

func (s *scribe) ranks(rs []int, err error) string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = s.sentinel(r, s.undefined, "UNDEFINED")
	}
	s.put("%v", out)
	return fmt.Sprintf("%v %s", rs, s.err(err))
}

func (s *scribe) sentinel(v, sentinel int, name string) string {
	if v == sentinel {
		return name
	}
	return fmt.Sprint(v)
}

// status renders a status: sentinels by name and the in-status code as
// the class the upper dialect reads it as (neutral), the raw fields
// (returned).
func (s *scribe) status(st abi.Status) string {
	src := fmt.Sprint(st.Source)
	switch int(st.Source) {
	case s.procNull:
		src = "PROC_NULL"
	case s.anySource:
		src = "ANY_SOURCE"
	}
	s.put("st{src=%s tag=%s err=%v n=%d cancelled=%t}", src, s.sentinel(int(st.Tag), s.anyTag, "ANY_TAG"),
		s.on.dialect().Codes.ClassOf(int(st.Error)), st.CountBytes, st.Cancelled)
	return fmt.Sprintf("st{%d %d %d}", st.Source, st.Tag, st.Error)
}

func (s *scribe) st(st abi.Status, err error) string { return s.status(st) + " " + s.err(err) }

// expectedDivergence names rows where some stacks answer differently
// from the reference stack (mpich+native+none), and why. The stacks an
// entry covers must still agree among themselves, and must still
// diverge; a stack takes the first entry that covers the row.
type expectedDivergence struct {
	why    string
	stacks func(stack) bool
	rows   []string
}

var expectedDivergences = []expectedDivergence{
	{"MANA refuses MPIX_Comm_shrink and MPIX_Comm_failure_get_acked: neither has a replayable recipe",
		func(st stack) bool { return st.mana },
		both("CommShrink(rv)", "CommSize(shrunk)", "CommFailureGetAcked(rv): no failures", "GroupSize(acked)",
			"CommShrink(comm)[null]", "CommShrink(comm)[never issued]", "CommShrink(comm)[freed]",
			"CommFailureGetAcked(comm)[null]", "CommFailureGetAcked(comm)[never issued]", "CommFailureGetAcked(comm)[freed]",
			"r0 CommFailureGetAcked(world)", "r0 CommShrink(world)")},
}

// both names a row on both ranks; a name that starts with its rank stands
// for itself.
func both(calls ...string) []string {
	var out []string
	for _, c := range calls {
		if strings.HasPrefix(c, "r0 ") {
			out = append(out, c)
		} else {
			out = append(out, "r0 "+c, "r1 "+c)
		}
	}
	return out
}

// chargeWant is the number of translation charges every FuncTable call
// costs: by a plain translator (Mukautuva or Wi4MPI), by MANA itself,
// and by the shim underneath one MANA call. Natives charge nothing.
var chargeWant = map[string][3]int{
	"ImplName": {0, 0, 0}, "Lookup": {0, 0, 0}, "LookupInt": {0, 0, 0},
	"Send": {1, 1, 1}, "Recv": {1, 1, 1}, "Isend": {1, 1, 1}, "Irecv": {1, 1, 1},
	"Wait": {1, 1, 1}, "Test": {1, 1, 1},
	"Waitall":  {1, 2, 2}, // MANA's Waitall is its Wait per request
	"Sendrecv": {1, 3, 3}, // MANA's Sendrecv is its Irecv + Send + Wait
	"Probe":    {1, 1, 1}, "Iprobe": {1, 1, 1},
	"Barrier": {1, 1, 1}, "Bcast": {1, 1, 1}, "Reduce": {1, 1, 1}, "Allreduce": {1, 1, 1},
	"Gather": {1, 1, 1}, "Allgather": {1, 1, 1}, "Scatter": {1, 1, 1}, "Alltoall": {1, 1, 1},
	"CommSize": {1, 1, 1}, "CommRank": {1, 1, 1},
	// MANA asks the lower half for a new communicator's rank and size:
	// three shim calls under one wrapper call.
	"CommDup": {1, 1, 3}, "CommSplit": {1, 1, 3}, "CommCreate": {1, 1, 3},
	"CommGroup": {1, 1, 1}, "CommFree": {1, 1, 1},
	"GroupSize": {1, 1, 1}, "GroupRank": {1, 1, 1}, "GroupIncl": {1, 1, 1}, "GroupExcl": {1, 1, 1},
	"GroupTranslateRanks": {1, 1, 1}, "GroupFree": {1, 1, 1},
	"TypeContiguous": {1, 1, 1}, "TypeVector": {1, 1, 1}, "TypeIndexed": {1, 1, 1},
	"TypeCreateStruct": {1, 1, 1}, "TypeCommit": {1, 1, 1}, "TypeFree": {1, 1, 1},
	"TypeSize": {1, 1, 1}, "TypeExtent": {1, 1, 1}, "GetCount": {1, 1, 1},
	"OpCreate": {1, 1, 1}, "OpFree": {1, 1, 1},
	"CommRevoke": {1, 1, 1}, "CommAgree": {1, 1, 1}, "CommFailureAck": {1, 1, 1},
	// MANA refuses the two handle-creating MPIX calls before charging.
	"CommShrink": {1, 0, 0}, "CommFailureGetAcked": {1, 0, 0},
	"Abort": {0, 0, 0}, // never charged: the job is over
}

// method is the FuncTable call a row makes.
func method(call string) string {
	if i := strings.IndexAny(call, "([ "); i >= 0 {
		return call[:i]
	}
	return call
}

// wantCharges is what one call of method m must cost on st.
func wantCharges(st stack, m string) [2]int {
	w := chargeWant[m]
	switch {
	case st.abi == "native" && !st.mana:
		return [2]int{}
	case !st.mana:
		return [2]int{w[0], 0}
	case st.shimUnderMana():
		return [2]int{w[1], w[2]}
	}
	return [2]int{w[1], 0}
}

// TestStackTranscripts runs one scripted two-rank program through all 18
// binding stacks ({mpich, openmpi, stdabi} x {native, Mukautuva, Wi4MPI}
// x {no checkpointer, MANA}). It calls all 51 FuncTable entries and
// records per call the outcome every stack must agree on (error class,
// handle kind, status fields with the in-status code read in the upper
// dialect, ranks and counts with sentinels by name, buffers) beside what
// only the stack's vocabulary shows (native codes, handle bits, raw
// statuses) and the translation charges read off the rank clock. Every
// handle-taking call is also given the null handle of each handle
// argument's class, a handle never issued and a freed one. Both ranks
// then abort; a closing phase on a fresh world kills rank 1 and runs
// rank 0 through ULFM's recovery calls.
//
// Before the golden is compared, every neutral column must be equal on
// all 18 stacks (except through expectedDivergences), every call must
// cost chargeWant's charges, and every spy (a table between each
// translator and the implementation that skews MPI_UNDEFINED and
// records what reaches it) must have seen unknown handles as their
// class's null and the UNDEFINED split colour in its own value. `go test
// ./internal/mpicore -run StackTranscripts -update` rewrites the golden.
func TestStackTranscripts(t *testing.T) {
	if n := reflect.TypeOf((*abi.FuncTable)(nil)).Elem().NumMethod(); len(chargeWant) != n {
		t.Fatalf("chargeWant has %d entries for the %d FuncTable methods", len(chargeWant), n)
	}
	stacks := allStacks()
	runs := make([][2]*scribe, len(stacks))
	for i, st := range stacks {
		// Each stack runs, and checks its own charges and spy, in a
		// subtest; the cross-stack comparison and the golden follow.
		t.Run(st.String(), func(t *testing.T) {
			for _, script := range []func(*scribe, abi.FuncTable, *fabric.World){transcript, killPhase} {
				w := fabrictest.World(t, 2)
				fabrictest.Run(t, w, func(r int) error {
					b, sp := st.build(w, r)
					s := newScribe(st, r, b, sp, w.Endpoint(r).Clock())
					if prev := runs[i][r]; prev != nil {
						// The kill phase's rows follow the script's.
						s.rows, s.faults = prev.rows, append(prev.faults, s.faults...)
					}
					runs[i][r] = s
					script(s, b, w)
					return nil
				})
			}
			for r, s := range runs[i] {
				checkStack(t, s, runs[0][r].rows)
			}
		})
	}
	if t.Failed() {
		return
	}
	var got strings.Builder
	got.WriteString("# rank call -> neutral outcome ||")
	for _, st := range stacks {
		fmt.Fprintf(&got, " %v |", st)
	}
	got.WriteString("\n")
	for r := 0; r < 2; r++ {
		for j, row := range runs[0][r].rows {
			compareNeutral(t, stacks, runs, r, j)
			fmt.Fprintf(&got, "r%d %s -> %s ||", r, row.call, row.neutral)
			for i := range stacks {
				c := runs[i][r].rows[j]
				fmt.Fprintf(&got, " %s c%d", c.raw, c.charges[0])
				if stacks[i].shimUnderMana() {
					fmt.Fprintf(&got, "+%d", c.charges[1])
				}
				got.WriteString(" |")
			}
			got.WriteString("\n")
		}
	}
	if t.Failed() {
		return
	}
	compareGolden(t, "stack_transcripts.golden", got.String(), nil)
}

// checkStack holds one rank's run to the reference stack's calls, to
// chargeWant and to what its spy saw.
func checkStack(t *testing.T, s *scribe, ref []row) {
	t.Helper()
	for _, f := range s.faults {
		t.Errorf("r%d %s", s.rank, f)
	}
	if len(s.rows) != len(ref) {
		t.Fatalf("r%d ran %d rows, the reference stack %d", s.rank, len(s.rows), len(ref))
	}
	checked := map[string]bool{}
	for j, row := range s.rows {
		if row.call != ref[j].call {
			t.Fatalf("r%d row %d ran %q where the reference stack ran %q", s.rank, j, row.call, ref[j].call)
		}
		m := method(row.call)
		if _, ok := chargeWant[m]; !ok {
			t.Errorf("r%d %s: %q is no FuncTable method", s.rank, row.call, m)
		}
		// Past a method's first call MANA's charges depend on the
		// arguments (one per request, none below it for a request it
		// answers alone); the golden pins those.
		if !s.on.mana || s.rank == 0 && !checked[m] {
			checked[m] = true
			if want := wantCharges(s.on, m); row.charges != want {
				t.Errorf("r%d %s: %d charges by the top layer and %d beneath it, want %d and %d",
					s.rank, row.call, row.charges[0], row.charges[1], want[0], want[1])
			}
		}
	}
	if s.rank == 0 && len(checked) != len(chargeWant) {
		t.Errorf("rank 0 calls %d of the %d FuncTable methods", len(checked), len(chargeWant))
	}
}

// compareNeutral asserts row j of rank r answers the same on every stack,
// or on every stack an expected divergence groups together.
func compareNeutral(t *testing.T, stacks []stack, runs [][2]*scribe, r, j int) {
	t.Helper()
	call := runs[0][r].rows[j].call
	refs := map[*expectedDivergence]int{}
	for i, st := range stacks {
		ref, div := 0, (*expectedDivergence)(nil)
		for k := range expectedDivergences {
			if d := &expectedDivergences[k]; div == nil && d.stacks(st) && containsRow(d.rows, r, call) {
				div = d
			}
		}
		if div != nil {
			if _, ok := refs[div]; !ok {
				refs[div] = i
			}
			ref = refs[div]
		}
		if got, want := runs[i][r].rows[j].neutral, runs[ref][r].rows[j].neutral; got != want {
			t.Errorf("r%d %s: %v answers %s, %v answers %s", r, call, st, got, stacks[ref], want)
		}
	}
	for div, i := range refs {
		if runs[i][r].rows[j].neutral == runs[0][r].rows[j].neutral {
			t.Errorf("r%d %s: expected divergence %q no longer diverges on %v", r, call, div.why, stacks[i])
		}
	}
}

func containsRow(rows []string, r int, call string) bool {
	for _, row := range rows {
		if row == fmt.Sprintf("r%d %s", r, call) {
			return true
		}
	}
	return false
}

// compareGolden byte-compares got with testdata/name, or rewrites the
// file under -update, reporting the first differing lines. A non-nil
// keep compares got with the golden's rows that keep accepts only.
func compareGolden(t *testing.T, name, got string, keep func(row string) bool) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if keep != nil {
		kept := wl[:0]
		for _, row := range wl {
			if row == "" || keep(row) {
				kept = append(kept, row)
			}
		}
		wl = kept
	}
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
func transcript(s *scribe, b abi.FuncTable, w *fabric.World) {
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
		s.row("Recv(2 float64 <- 1, ANY_TAG)", s.st(st, err), buf)
		s.row("Send(10 bytes -> 1, tag 9)", s.err(b.Send(make([]byte, 10), 10, byt, 1, 9, world)))
		big := make([]byte, 64<<10)
		st = abi.Status{}
		err = b.Recv(big, len(big), byt, 1, 10, world, &st)
		s.row("Recv(64 KiB <- 1, tag 10)", s.st(st, err))
	} else {
		buf := make([]byte, 12)
		st = abi.Status{}
		err := b.Recv(buf, 3, i32, anySource, 7, world, &st)
		s.row("Recv(3 int32 <- ANY_SOURCE, tag 7)", s.st(st, err), buf)
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
	st = abi.Status{}
	err = b.Recv(make([]byte, 7), 2, i32, peer, 0, world, &st)
	s.row("Recv(2 int32 into 7 bytes)", s.st(st, err))
	short, err := b.Irecv(make([]byte, 7), 2, i32, peer, 0, world)
	s.row("Irecv(2 int32 into 7 bytes)", s.h(short, err))

	// Nonblocking point-to-point.
	rbuf := make([]byte, 4)
	rr, err := b.Irecv(rbuf, 1, i32, peer, 1, world)
	s.row("Irecv(<- peer, tag 1)", s.h(rr, err))
	sr, err := b.Isend(one(10+me), 1, i32, peer, 1, world)
	s.row("Isend(-> peer, tag 1)", s.h(sr, err))
	st = abi.Status{}
	err = b.Wait(rr, &st)
	s.row("Wait(irecv)", s.st(st, err), rbuf)
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
		s.row("Test("+r.name+")", s.st(st, err), done)
	}

	rr, err = b.Irecv(rbuf, 1, i32, peer, 3, world)
	s.row("Irecv(<- peer, tag 3)", s.h(rr, err))
	st = abi.Status{}
	done, err := b.Test(rr, &st)
	s.row("Test(irecv, nothing sent yet)", s.st(st, err), done)
	s.row("Barrier(world)", s.err(b.Barrier(world)))
	sr, err = b.Isend(one(30+me), 1, i32, peer, 3, world)
	s.row("Isend(-> peer, tag 3)", s.h(sr, err))
	sts := make([]abi.Status, 2)
	err = b.Waitall([]abi.Handle{rr, sr}, sts)
	s.row("Waitall([irecv isend], statuses)", s.status(sts[0])+" "+s.status(sts[1])+" "+s.err(err))
	rr, err = b.Irecv(rbuf, 1, i32, peer, 4, world)
	s.row("Irecv(<- peer, tag 4)", s.h(rr, err))
	sr, err = b.Isend(one(40+me), 1, i32, peer, 4, world)
	s.row("Isend(-> peer, tag 4)", s.h(sr, err))
	s.row("Waitall([irecv isend], nil)", s.err(b.Waitall([]abi.Handle{rr, sr}, nil)))
	sts = make([]abi.Status, 2)
	err = b.Waitall([]abi.Handle{reqNull, reqNull}, sts)
	s.row("Waitall([REQUEST_NULL REQUEST_NULL])", s.status(sts[0])+" "+s.status(sts[1])+" "+s.err(err))
	st = abi.Status{}
	err = b.Wait(reqNull, &st)
	s.row("Wait(REQUEST_NULL)", s.st(st, err))
	st = abi.Status{}
	done, err = b.Test(reqNull, &st)
	s.row("Test(REQUEST_NULL)", s.st(st, err), done)
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
		s.row("Iprobe(0, tag 11)", s.st(st, err), found)
		st = abi.Status{}
		err = b.Recv(make([]byte, 8), 2, i32, 0, 11, world, &st)
		s.row("Recv(2 int32 <- 0, tag 11)", s.st(st, err))
	}
	st = abi.Status{}
	found, err := b.Iprobe(peer, 12, world, &st)
	s.row("Iprobe(peer, tag 12: never sent)", s.st(st, err), found)
	st = abi.Status{}
	found, err = b.Iprobe(procNull, anyTag, world, &st)
	s.row("Iprobe(PROC_NULL)", s.st(st, err), found)
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
	s.row("Bcast(2 int32, root 0)", s.err(err), bb)
	s.row("Bcast(bad root)", s.err(b.Bcast(bb, 2, i32, 9, world)))
	rb := make([]byte, 8)
	err = b.Reduce(abi.Int32Bytes([]int32{int32(me + 1), 7}), rb, 2, i32, sum, 1, world)
	s.row("Reduce(sum, root 1)", s.err(err), rb)
	rb = make([]byte, 8)
	err = b.Allreduce(abi.Float64Bytes([]float64{float64(me) - 0.5}), rb, 1, f64, maxOp, world)
	s.row("Allreduce(max)", s.err(err), rb)
	var gb []byte
	if me == 0 {
		gb = make([]byte, 8)
	}
	err = b.Gather(one(3*me+1), 1, i32, gb, 1, i32, 0, world)
	s.row("Gather(root 0)", s.err(err), gb)
	rb = make([]byte, 8)
	err = b.Allgather(one(me+100), 1, i32, rb, 1, i32, world)
	s.row("Allgather", s.err(err), rb)
	var sb []byte
	if me == 1 {
		sb = abi.Int32Bytes([]int32{70, 71})
	}
	rb = make([]byte, 4)
	err = b.Scatter(sb, 1, i32, rb, 1, i32, 1, world)
	s.row("Scatter(root 1)", s.err(err), rb)
	rb = make([]byte, 8)
	err = b.Alltoall(abi.Int32Bytes([]int32{int32(10 * me), int32(10*me + 1)}), 1, i32, rb, 1, i32, world)
	s.row("Alltoall", s.err(err), rb)
	s.row("Bcast(count -1)", s.err(b.Bcast(bb, -1, i32, 0, world)))
	s.row("Reduce(count -1)", s.err(b.Reduce(bb, rb, -1, i32, sum, 0, world)))
	s.row("Allreduce(count -1)", s.err(b.Allreduce(bb, rb, -1, i32, sum, world)))
	s.row("Gather(scount -1, rcount -1)", s.err(b.Gather(bb, -1, i32, rb, -1, i32, 0, world)))
	s.row("Allgather(scount -1, rcount -1)", s.err(b.Allgather(bb, -1, i32, rb, -1, i32, world)))
	s.row("Scatter(scount -1, rcount -1)", s.err(b.Scatter(bb, -1, i32, rb, -1, i32, 0, world)))
	s.row("Alltoall(scount -1, rcount -1)", s.err(b.Alltoall(bb, -1, i32, rb, -1, i32, world)))

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
	s.row("GroupTranslateRanks(g0, [0], g)", s.ranks(b.GroupTranslateRanks(g0, []int{0}, g)))
	s.row("GroupTranslateRanks(g, [0 1], g1)", s.ranks(b.GroupTranslateRanks(g, []int{0, 1}, g1)))
	s.row("GroupTranslateRanks(g, [2], g1)", s.ranks(b.GroupTranslateRanks(g, []int{2}, g1)))
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
		s.row("Recv(vector <- 0, tag 20)", s.st(st, err), dst)
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
	s.row("Allreduce(user sum)", s.err(err), rb)
	s.row("OpFree(user sum)", s.err(b.OpFree(uo)))
	s.row("OpFree(SUM)", s.err(b.OpFree(sum)))
	missing, err := b.OpCreate("mpicore.transcript.missing", true)
	s.row("OpCreate(unregistered)", s.h(missing, err))

	// ULFM.
	rv, err := b.CommDup(world)
	s.row("CommDup(world) for revocation", s.h(rv, err))
	agreed, err := b.CommAgree(rv, 0b110|uint64(me))
	s.row("CommAgree(rv)", s.err(err), agreed)
	s.row("CommRevoke(rv)", s.err(b.CommRevoke(rv)))
	s.row("Barrier(rv) revoked", s.err(b.Barrier(rv)))
	s.row("Send(rv) revoked", s.err(b.Send(nil, 0, byt, peer, 0, rv)))
	s.row("CommSize(rv) revoked", s.n(b.CommSize(rv)))
	agreed, err = b.CommAgree(rv, 1)
	s.row("CommAgree(rv) revoked", s.err(err), agreed)
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
		s.put("%t", done)
		return s.st(st, err)
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
		s.put("%t", found)
		return s.st(st, err)
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
	probe("GroupTranslateRanks(g1)", group, func(h abi.Handle) string { return s.ranks(b.GroupTranslateRanks(h, []int{0}, g)) })
	probe("GroupTranslateRanks(g2)", group, func(h abi.Handle) string { return s.ranks(b.GroupTranslateRanks(g, []int{0}, h)) })
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
		s.put("%#b", v)
		return s.err(err)
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
	s.row("GroupSize(acked)", s.n(b.GroupSize(ga)))
	s.row("GroupFree(g)", s.err(b.GroupFree(g)))

	// Sendrecv, late: whether it mints a request shows in the serials
	// minted after it.
	rbuf = make([]byte, 4)
	st = abi.Status{}
	err = b.Sendrecv(one(50+me), 1, i32, peer, 40, rbuf, 1, i32, peer, 40, world, &st)
	s.row("Sendrecv(<-> peer, tag 40)", s.st(st, err), rbuf)
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
	s.row("Test(it)", s.st(st, err), done)
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

// killPhase closes the transcript on a fresh world, since Abort tore the
// first one down: rank 1 dies while rank 0 waits on a receive from it,
// and rank 0 runs ULFM's recovery calls alone.
func killPhase(s *scribe, b abi.FuncTable, w *fabric.World) {
	world := b.Lookup(abi.SymCommWorld)
	i32 := b.Lookup(abi.SymForKind(types.KindInt32))
	rbuf := make([]byte, 4)
	var pend abi.Handle
	var err error
	if s.rank == 0 {
		pend, err = b.Irecv(rbuf, 1, i32, 1, 5, world)
		s.row("Irecv(<- 1, tag 5: 1 dies)", s.h(pend, err))
	}
	s.row("Barrier(world) before the kill", s.err(b.Barrier(world)))
	if s.rank == 1 {
		w.Kill(1)
		w.NotifyFailure(1)
		return
	}
	st := abi.Status{}
	err = b.Wait(pend, &st)
	s.row("Wait(it) on the dead source", s.st(st, err))
	agreed, err := b.CommAgree(world, 5)
	s.row("CommAgree(world) among survivors", s.err(err), agreed)
	s.row("CommFailureAck(world)", s.err(b.CommFailureAck(world)))
	acked, err := b.CommFailureGetAcked(world)
	s.row("CommFailureGetAcked(world)", s.h(acked, err))
	s.row("GroupSize(acked)", s.n(b.GroupSize(acked)))
	pend, err = b.Irecv(rbuf, 1, i32, s.anySource, 5, world)
	s.row("Irecv(<- ANY_SOURCE, tag 5)", s.h(pend, err))
	s.row("CommRevoke(world)", s.err(b.CommRevoke(world)))
	st = abi.Status{}
	err = b.Wait(pend, &st)
	s.row("Wait(it) across the revocation", s.st(st, err))
	s.row("Send(-> 0) on the revoked world", s.err(b.Send(rbuf, 1, i32, 0, 5, world)))
	shrunk, err := b.CommShrink(world)
	s.row("CommShrink(world)", s.h(shrunk, err))
	s.row("CommSize(shrunk)", s.n(b.CommSize(shrunk)))
}
