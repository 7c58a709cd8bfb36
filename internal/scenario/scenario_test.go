package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/dmtcp"
	"repro/internal/faults"
)

func TestEnumerateExcludesInvalidStacks(t *testing.T) {
	specs := DefaultMatrix().Enumerate()
	if len(specs) == 0 {
		t.Fatal("empty matrix")
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("enumerated invalid scenario %s: %v", s.ID(), err)
		}
		if seen[s.ID()] {
			t.Errorf("duplicate scenario %s", s.ID())
		}
		seen[s.ID()] = true
	}
	// The matrix must cover every base cell: 2 apps x 3 impls x 3 ABIs x
	// 3 checkpointers = 54 straight runs.
	var straight, cross, same int
	var rankCrash, nodeCrash, nicDegrade, shrink, replicate int
	for _, s := range specs {
		switch s.Fault {
		case faults.KindRankCrash:
			if s.Recovery == RecoveryReplicate {
				replicate++
				continue
			}
			if s.Recovery == RecoveryShrink {
				shrink++
				continue
			}
			rankCrash++
			continue
		case faults.KindNodeCrash:
			nodeCrash++
			continue
		case faults.KindNICDegrade:
			nicDegrade++
			continue
		}
		switch {
		case !s.HasRestart():
			straight++
		case s.RestartImpl != s.Impl:
			cross++
		default:
			same++
		}
	}
	if straight != 54 {
		t.Errorf("straight scenarios = %d, want 54", straight)
	}
	// Cross-implementation restarts exist only for MANA over a standard
	// ABI: 2 apps x 2 standard ABIs x 3 launch impls x 2 other restart
	// impls = 24 (stdabi<->{mpich,openmpi} pairings included, both
	// directions).
	if cross != 24 {
		t.Errorf("cross-restart scenarios = %d, want 24", cross)
	}
	if same == 0 {
		t.Error("no same-implementation restart scenarios")
	}
	// The fault axis: a rank-crash recovery per restart pairing (24 cross
	// + 36 same = 60), a node-crash per cross pairing (24), and — per
	// checkpointer-free straight cell (18 of them) — one nic-degrade,
	// one ULFM shrink-recovery rank-crash and one replication-failover
	// rank-crash (the recovery-mode axis) — 252 scenarios total.
	if rankCrash != 60 {
		t.Errorf("rank-crash scenarios = %d, want 60", rankCrash)
	}
	if nodeCrash != 24 {
		t.Errorf("node-crash scenarios = %d, want 24", nodeCrash)
	}
	if nicDegrade != 18 {
		t.Errorf("nic-degrade scenarios = %d, want 18", nicDegrade)
	}
	if shrink != 18 {
		t.Errorf("shrink-recovery scenarios = %d, want 18", shrink)
	}
	if replicate != 18 {
		t.Errorf("replicate-recovery scenarios = %d, want 18", replicate)
	}
	if len(specs) != 252 {
		t.Errorf("matrix has %d scenarios, want 252", len(specs))
	}
	// Both in-place recovery modes must cover all three implementations,
	// both native and shimmed.
	recBy := map[string]map[core.Impl]map[core.ABIMode]bool{
		RecoveryShrink: {}, RecoveryReplicate: {},
	}
	for _, s := range specs {
		by, ok := recBy[s.Recovery]
		if !ok {
			continue
		}
		if s.Ckpt != core.CkptNone || s.HasRestart() {
			t.Errorf("%s cell %s advertises a checkpoint or restart leg", s.Recovery, s.ID())
		}
		if by[s.Impl] == nil {
			by[s.Impl] = make(map[core.ABIMode]bool)
		}
		by[s.Impl][s.ABI] = true
	}
	for mode, by := range recBy {
		for _, impl := range []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI} {
			for _, abiMode := range []core.ABIMode{core.ABINative, core.ABIMukautuva, core.ABIWi4MPI} {
				if !by[impl][abiMode] {
					t.Errorf("no %s-recovery cell for %s+%s", mode, impl, abiMode)
				}
			}
		}
	}
	if len(specs) < 170 {
		t.Errorf("matrix has %d scenarios, the stdabi axis should push it past 170", len(specs))
	}
	// The stdabi axis must contribute cross-restart recovery cells in
	// both directions (the acceptance bar for the third implementation).
	var stdCross int
	for _, s := range specs {
		if s.Fault == faults.KindNodeCrash &&
			(s.Impl == core.ImplStdABI) != (s.RestartImpl == core.ImplStdABI) {
			stdCross++
		}
	}
	if stdCross < 4 {
		t.Errorf("stdabi node-crash cross-restart cells = %d, want >= 4", stdCross)
	}
	for _, s := range specs {
		if s.HasRestart() && s.RestartImpl != s.Impl && s.Ckpt != core.CkptMANA {
			t.Errorf("cross-restart scenario %s with checkpointer %s", s.ID(), s.Ckpt)
		}
		if s.Fault == faults.KindNodeCrash && s.RestartImpl == s.Impl {
			t.Errorf("node-crash scenario %s is not a cross-implementation pairing", s.ID())
		}
	}
}

func TestFaultSpecValidation(t *testing.T) {
	bad := []Spec{
		// Crash recovery without a checkpointing package.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash},
		// Unknown fault kind.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptMANA,
			Fault: "gamma-ray"},
		// Fault parameters without a fault.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			FaultStep: 3},
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			CkptEvery: 2},
		// A restart pairing on a nic-degrade cell would never execute.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva, Fault: faults.KindNICDegrade},
		// Recovery mode without a fault.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Recovery: RecoveryShrink},
		// Unknown recovery mode.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: "regrow"},
		// Shrink recovery is checkpoint-free: a checkpointer on the cell
		// advertises a leg that never executes.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			Fault: faults.KindRankCrash, Recovery: RecoveryShrink},
		// ... as does a restart pairing.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
			RestartImpl: core.ImplOpenMPI, RestartABI: core.ABIMukautuva,
			Fault: faults.KindRankCrash, Recovery: RecoveryShrink},
		// ... or a checkpoint interval.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryShrink, CkptEvery: 2},
		// Shrink under a node crash would drop whole nodes of ranks.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindNodeCrash, Recovery: RecoveryShrink},
		// Replication is checkpoint-free too...
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			Fault: faults.KindRankCrash, Recovery: RecoveryReplicate},
		// ... never restarts ...
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
			RestartImpl: core.ImplOpenMPI, RestartABI: core.ABIMukautuva,
			Fault: faults.KindRankCrash, Recovery: RecoveryReplicate},
		// ... takes no checkpoint interval ...
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryReplicate, CkptEvery: 2},
		// ... and only absorbs rank crashes (a node crash could land on a
		// replica pair's disjoint nodes in one blow).
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindNodeCrash, Recovery: RecoveryReplicate},
		// Recovery mode on a nic-degrade cell is meaningless.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindNICDegrade, Recovery: RecoveryShrink},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid fault scenario %s accepted", s.ID())
		}
	}
	good := []Spec{
		// nic-degrade needs no checkpointer: nothing dies.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindNICDegrade},
		// Crash recovery under the same stack (no restart leg).
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			Fault: faults.KindRankCrash, FaultStep: 3, CkptEvery: 2},
		// The headline: node crash, recover under the other implementation.
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva, Fault: faults.KindNodeCrash},
		// ULFM shrink recovery: checkpointer-free, any binding.
		{Program: "app.wave", Impl: core.ImplStdABI, ABI: core.ABIWi4MPI, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, FaultStep: 3, Recovery: RecoveryShrink},
		// Replication failover: checkpointer-free, any binding.
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, FaultStep: 3, Recovery: RecoveryReplicate},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("valid fault scenario %s rejected: %v", s.ID(), err)
		}
	}
	// Fault parameters are part of the identity (distinct image dirs,
	// distinct report rows).
	a := good[1]
	b := a
	b.CkptEvery = 4
	if a.ID() == b.ID() {
		t.Errorf("distinct checkpoint intervals share ID %s", a.ID())
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Spec{
		// Restart without a checkpointing package.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
			RestartImpl: core.ImplOpenMPI, RestartABI: core.ABIMukautuva},
		// Cross-implementation restart of a native-ABI MANA image.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplOpenMPI, RestartABI: core.ABINative},
		// Cross-implementation restart of a plain DMTCP image.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptDMTCP,
			RestartImpl: core.ImplOpenMPI, RestartABI: core.ABIMukautuva},
		// Standard-ABI image restarted without a translation layer.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABINative},
		// Unknown implementation.
		{Program: "app.wave", Impl: "lam", ABI: core.ABINative, Ckpt: core.CkptNone},
		// Unknown kernel model.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone, Kernel: "4.4"},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid scenario %s accepted", s.ID())
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	a, b := DefaultMatrix().Enumerate(), DefaultMatrix().Enumerate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("enumeration order is not deterministic")
	}
}

func TestSeedsDeterministicAndPaired(t *testing.T) {
	if seedFor(1, "app.wave", 0) != seedFor(1, "app.wave", 0) {
		t.Fatal("seed not deterministic")
	}
	if seedFor(1, "app.wave", 0) == seedFor(1, "app.wave", 1) {
		t.Fatal("repetitions share a seed")
	}
	if seedFor(1, "app.wave", 0) == seedFor(2, "app.wave", 0) {
		t.Fatal("base seed has no effect")
	}
	if seedFor(1, "app.wave", 0) == seedFor(1, "app.comd", 0) {
		t.Fatal("programs share a seed")
	}
}

// withStubRunner swaps the scenario runner for fn for the test's duration.
func withStubRunner(t *testing.T, fn func(Spec, Options) Result) {
	t.Helper()
	orig := runScenario
	runScenario = fn
	t.Cleanup(func() { runScenario = orig })
}

func TestWorkerPoolRespectsParallelismBound(t *testing.T) {
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	withStubRunner(t, func(s Spec, o Options) Result {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return Result{ID: s.ID(), Spec: s, Status: StatusPass}
	})
	specs := DefaultMatrix().Enumerate()[:12]
	rep := Run(specs, Options{Parallel: 3, Reps: 1})
	if got := peak.Load(); got > 3 {
		t.Fatalf("pool ran %d scenarios concurrently, bound is 3", got)
	}
	if rep.Scenarios != 12 || rep.Passed != 12 {
		t.Fatalf("report: %d scenarios, %d passed", rep.Scenarios, rep.Passed)
	}
}

func TestFailingScenarioDoesNotAbortSiblings(t *testing.T) {
	withStubRunner(t, func(s Spec, o Options) Result {
		if strings.HasPrefix(s.Program, "app.comd") {
			panic("stack blew up")
		}
		return Result{ID: s.ID(), Spec: s, Status: StatusPass}
	})
	specs := []Spec{
		{Program: "app.comd", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABINative, Ckpt: core.CkptNone},
	}
	// The stub panics out of runScenario itself: the pool worker must not
	// die with it. Wrap like the real runner does.
	withStubRunner(t, func(s Spec, o Options) (res Result) {
		defer func() {
			if r := recover(); r != nil {
				res = Result{ID: s.ID(), Spec: s, Status: StatusFail, Error: "panic"}
			}
		}()
		if s.Program == "app.comd" {
			panic("stack blew up")
		}
		return Result{ID: s.ID(), Spec: s, Status: StatusPass}
	})
	rep := Run(specs, Options{Parallel: 2, Reps: 1})
	if rep.Failed != 1 || rep.Passed != 2 {
		t.Fatalf("passed=%d failed=%d, want 2/1", rep.Passed, rep.Failed)
	}
	if f := rep.FirstFailure(); f == nil || f.Spec.Program != "app.comd" {
		t.Fatalf("FirstFailure = %+v", f)
	}
}

func TestRunOneIsolatesPanicsAndInvalidSpecs(t *testing.T) {
	// An invalid spec fails its own cell with the validation error.
	res := runOne(Spec{Program: "app.wave", Impl: "lam", ABI: core.ABINative, Ckpt: core.CkptNone}, Quick())
	if res.Status != StatusFail || res.Error == "" {
		t.Fatalf("invalid spec result: %+v", res)
	}
	// An unregistered program fails at launch, not by sinking the run.
	res = runOne(Spec{Program: "app.nonesuch", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		Options{Nodes: 1, RanksPerNode: 2, Reps: 1})
	if res.Status != StatusFail || !strings.Contains(res.Error, "not registered") {
		t.Fatalf("unregistered program result: %+v", res)
	}
}

// tinyOptions runs real stacks small enough for CI.
func tinyOptions(t *testing.T) Options {
	return Options{
		Nodes: 1, RanksPerNode: 4, Reps: 2,
		MaxSize: 64, Iters: 2, Warmup: 1,
		AppScale: 0.01, Parallel: 2,
		Timeout: time.Minute,
	}
}

func TestRunRealScenariosEndToEnd(t *testing.T) {
	specs := []Spec{
		// Straight run, native stack.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		// Cross-implementation restart through the standard ABI.
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva},
		// Plain DMTCP same-stack restart.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptDMTCP,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva},
		// OSU benchmark: must produce a latency curve.
		{Program: "osu.alltoall", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
	}
	rep := Run(specs, tinyOptions(t))
	if rep.Failed != 0 {
		t.Fatalf("failures:\n%s", rep.Render())
	}
	for _, s := range specs[1:3] {
		res := rep.Find(s.ID())
		if res == nil {
			t.Fatalf("scenario %s missing from report", s.ID())
		}
		if res.RestartTime == nil || res.RestartTime.Median <= 0 {
			t.Errorf("%s: no restarted-run time", s.ID())
		}
		if len(res.Lineage) != 2 {
			t.Errorf("%s: lineage for %d reps, want 2", s.ID(), len(res.Lineage))
		} else if res.Lineage[0].Step == 0 {
			t.Errorf("%s: lineage missing checkpoint step", s.ID())
		}
	}
	if res := rep.Find(specs[1].ID()); !res.Cross() {
		t.Error("mukautuva+mana pairing not flagged as cross-implementation")
	}
	osuRes := rep.Find(specs[3].ID())
	if osuRes.Curve == nil || len(osuRes.Curve.Sizes) != 7 { // 1..64
		t.Fatalf("osu scenario curve: %+v", osuRes.Curve)
	}
	for i, m := range osuRes.Curve.MedianUS {
		if m <= 0 {
			t.Errorf("size %d: non-positive latency", osuRes.Curve.Sizes[i])
		}
	}
}

// faultOptions is tinyOptions over two nodes, so node faults have a
// surviving node and crash scenarios cross a node boundary.
func faultOptions(t *testing.T) Options {
	o := tinyOptions(t)
	o.Nodes = 2
	o.RanksPerNode = 2
	return o
}

func TestFaultScenariosEndToEnd(t *testing.T) {
	specs := []Spec{
		// The paper's headline under failure: launch Open MPI, crash a
		// node, recover and complete under MPICH.
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva, Fault: faults.KindNodeCrash},
		// Same-stack rank-crash recovery.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			Fault: faults.KindRankCrash},
		// Degraded completion, no recovery.
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindNICDegrade},
	}
	rep := Run(specs, faultOptions(t))
	if rep.Failed != 0 {
		t.Fatalf("failures:\n%s", rep.Render())
	}
	for _, s := range specs[:2] {
		res := rep.Find(s.ID())
		if res == nil {
			t.Fatalf("scenario %s missing", s.ID())
		}
		if len(res.Faults) != 2 {
			t.Fatalf("%s: fault records for %d reps, want 2", s.ID(), len(res.Faults))
		}
		for _, fr := range res.Faults {
			if fr.Restarts == 0 {
				t.Errorf("%s rep %d: fault did not trigger recovery", s.ID(), fr.Rep)
			}
			if fr.Step == 0 || len(fr.Ranks) == 0 {
				t.Errorf("%s rep %d: fault record incomplete: %+v", s.ID(), fr.Rep, fr)
			}
			if fr.DetectVirtMS <= 0 {
				t.Errorf("%s rep %d: no detection time", s.ID(), fr.Rep)
			}
			if fr.ImageDir == "" || fr.ImageStep == 0 {
				t.Errorf("%s rep %d: no image lineage (interval 1 guarantees one): %+v", s.ID(), fr.Rep, fr)
			}
			if want := dmtcp.PeriodicDir(imageRoot(s, fr.Rep), fr.ImageStep); fr.ImageDir != want {
				t.Errorf("%s rep %d: image set %q, want the cell-relative %q", s.ID(), fr.Rep, fr.ImageDir, want)
			}
		}
		if res.Time == nil || res.Time.Median <= 0 {
			t.Errorf("%s: no recovered completion time", s.ID())
		}
	}
	headline := rep.Find(specs[0].ID())
	if headline.Faults[0].Node < 0 {
		t.Errorf("node crash recorded no node: %+v", headline.Faults[0])
	}
	if headline.Faults[0].RestartStack == "" {
		t.Errorf("cross recovery recorded no restart stack")
	}
	if nic := rep.Find(specs[2].ID()); len(nic.Faults) != 2 || nic.Faults[0].Restarts != 0 {
		t.Errorf("nic-degrade records = %+v", nic.Faults)
	}
}

// Same seed, same fault: two runs of a fault scenario must resolve the
// same victims at the same step — the report-diffability guarantee
// extended to the fault axis.
func TestFaultResolutionDeterministic(t *testing.T) {
	spec := Spec{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
		Fault: faults.KindRankCrash}
	a := Run([]Spec{spec}, faultOptions(t))
	b := Run([]Spec{spec}, faultOptions(t))
	ra, rb := a.Find(spec.ID()), b.Find(spec.ID())
	if ra.Status != StatusPass || rb.Status != StatusPass {
		t.Fatalf("runs failed:\n%s\n%s", a.Render(), b.Render())
	}
	for i := range ra.Faults {
		fa, fb := ra.Faults[i], rb.Faults[i]
		if !reflect.DeepEqual(fa.Ranks, fb.Ranks) || fa.Step != fb.Step || fa.ImageStep != fb.ImageStep {
			t.Fatalf("rep %d resolved differently:\n%+v\n%+v", i, fa, fb)
		}
	}
}

// A cell keeps its checkpoint images in memory, so no directory can
// change its result. A rerun over the same Scratch and KeepImages
// directory reports the same cells, although the directory now holds, in
// every recovery lineage, a complete image set newer than the one
// recovery used, which a run that scanned the directory would restart
// from. KeepImages still receives every image set, where the report
// names it.
func TestCellsIgnoreLeftoverImages(t *testing.T) {
	specs := []Spec{
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			Fault: faults.KindRankCrash},
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva},
	}
	dir := t.TempDir()
	o := faultOptions(t)
	o.Scratch, o.KeepImages = dir, dir
	first := Run(specs, o)
	if first.Failed != 0 {
		t.Fatalf("failures:\n%s", first.Render())
	}
	planted := 0
	for _, res := range first.Results {
		for _, lin := range res.Lineage {
			if _, err := dmtcp.ReadRankImage(filepath.Join(dir, lin.Dir), 0); err != nil {
				t.Errorf("%s: kept image set %s: %v", res.ID, lin.Dir, err)
			}
		}
		for _, fr := range res.Faults {
			root := filepath.Join(dir, filepath.Dir(fr.ImageDir))
			newest := dmtcp.PeriodicDir(root, 999999)
			copyDir(t, filepath.Join(dir, fr.ImageDir), newest)
			if set, _, ok := dmtcp.LatestComplete(dmtcp.Dir(""), root, 0); !ok || set != newest {
				t.Fatalf("planted set is not the directory's newest complete one: %q", set)
			}
			planted++
		}
	}
	if planted == 0 {
		t.Fatal("no recovery lineage to plant a set in")
	}
	second := Run(specs, o)
	for _, rep := range []*Report{first, second} {
		for i := range rep.Results {
			rep.Results[i].WallMS = 0
		}
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatalf("rerun over the same directory differs:\n%+v\n%+v", first.Results, second.Results)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A faulted cell fails or recovers alone: a node crash in one scenario
// must not sink the healthy sibling running concurrently.
func TestNodeCrashIsolation(t *testing.T) {
	o := faultOptions(t)
	o.Parallel = 2
	specs := []Spec{
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva, Fault: faults.KindNodeCrash},
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
	}
	rep := Run(specs, o)
	if rep.Failed != 0 {
		t.Fatalf("isolation broken:\n%s", rep.Render())
	}
	healthy := rep.Find(specs[1].ID())
	if len(healthy.Faults) != 0 {
		t.Fatalf("healthy cell caught fault records: %+v", healthy.Faults)
	}

	// And when recovery is impossible — a crash pairing the stool cannot
	// support — the faulted cell fails alone, without sinking the healthy
	// sibling.
	badSpecs := []Spec{
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptDMTCP,
			RestartImpl: core.ImplOpenMPI, RestartABI: core.ABIMukautuva, Fault: faults.KindRankCrash},
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
	}
	rep = Run(badSpecs, o)
	if rep.Failed != 1 || rep.Passed != 1 {
		t.Fatalf("invalid pairing not isolated:\n%s", rep.Render())
	}
	if f := rep.FirstFailure(); f.Spec.Fault != faults.KindRankCrash {
		t.Fatalf("wrong cell failed: %+v", f)
	}
}

func TestTimeoutFailsScenarioWithoutSinkingRun(t *testing.T) {
	o := tinyOptions(t)
	o.Reps = 1
	// Wide enough that the tiny wave run always finishes (even under the
	// race detector's slowdown), far shorter than glacial's ~200s.
	o.Timeout = 2 * time.Second
	specs := []Spec{
		// The glacial program (registered below) outlives the timeout and
		// must be cancelled; the sibling wave run must still pass.
		{Program: "test.scenario.glacial", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
	}
	rep := Run(specs, o)
	if rep.Failed != 1 || rep.Passed != 1 {
		t.Fatalf("report:\n%s", rep.Render())
	}
	fail := rep.FirstFailure()
	if fail.Spec.Program != "test.scenario.glacial" || !strings.Contains(fail.Error, "timed out") {
		t.Fatalf("failure = %+v", fail)
	}
}

// glacialProg sleeps through every step; only a timeout ends it.
type glacialProg struct{ Iter int }

func (g *glacialProg) Setup(env *abi.Env) error { return nil }
func (g *glacialProg) Step(env *abi.Env) (bool, error) {
	time.Sleep(2 * time.Millisecond) //mpivet:allow parksafe -- glacialProg exists to stall the world and trip the engine's timeout path
	g.Iter++
	return g.Iter >= 100000, nil
}

func init() {
	core.RegisterProgram("test.scenario.glacial", func() core.Program { return &glacialProg{} })
}

func TestReportJSONRoundTrip(t *testing.T) {
	withStubRunner(t, func(s Spec, o Options) Result {
		return runOne(s, o) // real runner, tiny specs below
	})
	specs := []Spec{
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva},
	}
	rep := Run(specs, tinyOptions(t))
	path := filepath.Join(t.TempDir(), "nested", "results.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel is deliberately not serialized: a CPU-derived pool width
	// would make reports non-diffable across machines.
	rep.Options.Parallel = 0
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", rep, got)
	}
	if got.SchemaVersion != SchemaVersion || got.Find(specs[1].ID()) == nil {
		t.Fatal("report lost identity through JSON")
	}
}

func TestReadReportRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	rep := AssembleReport(Options{}, nil, 0)
	rep.SchemaVersion = SchemaVersion + 1
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("unknown schema version accepted")
	}
}

func TestRunCollapsesDuplicateSpecs(t *testing.T) {
	withStubRunner(t, func(s Spec, o Options) Result {
		return Result{ID: s.ID(), Spec: s, Status: StatusPass}
	})
	s := Spec{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone}
	rep := Run([]Spec{s, s, s}, Options{Parallel: 2, Reps: 1})
	if rep.Scenarios != 1 {
		t.Fatalf("duplicates not collapsed: %d scenarios", rep.Scenarios)
	}
}

// TestShrinkScenariosEndToEnd runs the recovery-mode axis live: one
// shrink-recovery rank-crash cell per implementation (one shimmed), at
// tiny scale, asserting the shrink half of the fault record and — the
// determinism bar — that a second run produces identical fault
// resolution.
func TestShrinkScenariosEndToEnd(t *testing.T) {
	specs := []Spec{
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryShrink},
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryShrink},
		{Program: "app.wave", Impl: core.ImplStdABI, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryShrink},
	}
	rep := Run(specs, faultOptions(t))
	if rep.Failed != 0 {
		t.Fatalf("failures:\n%s", rep.Render())
	}
	for _, s := range specs {
		res := rep.Find(s.ID())
		if res == nil {
			t.Fatalf("scenario %s missing", s.ID())
		}
		if len(res.Faults) != 2 {
			t.Fatalf("%s: fault records for %d reps, want 2", s.ID(), len(res.Faults))
		}
		for _, fr := range res.Faults {
			if fr.Recovery != RecoveryShrink {
				t.Errorf("%s rep %d: recovery mode %q", s.ID(), fr.Rep, fr.Recovery)
			}
			if fr.Shrinks != 1 || fr.Restarts != 0 {
				t.Errorf("%s rep %d: shrinks=%d restarts=%d, want 1/0", s.ID(), fr.Rep, fr.Shrinks, fr.Restarts)
			}
			if fr.Survivors != 3 {
				t.Errorf("%s rep %d: survivors=%d, want 3", s.ID(), fr.Rep, fr.Survivors)
			}
			if fr.Step == 0 || len(fr.Ranks) != 1 {
				t.Errorf("%s rep %d: fault record incomplete: %+v", s.ID(), fr.Rep, fr)
			}
			if fr.ImageDir != "" || fr.ImageStep != 0 {
				t.Errorf("%s rep %d: shrink cell recorded checkpoint lineage: %+v", s.ID(), fr.Rep, fr)
			}
		}
		if res.Time == nil || res.Time.Median <= 0 {
			t.Errorf("%s: no recovered completion time", s.ID())
		}
	}

	// Determinism: a second run resolves the same victims at the same
	// steps with the same shrink outcomes. The structural fields are
	// exact; virtual times (DetectVirtMS, completion) carry the engine's
	// documented near-determinism under simulated NIC contention and are
	// deliberately not compared — same bar as the restart fault cells.
	rep2 := Run(specs, faultOptions(t))
	for _, s := range specs {
		a, b := rep.Find(s.ID()), rep2.Find(s.ID())
		for i := range a.Faults {
			fa, fb := a.Faults[i], b.Faults[i]
			fa.DetectVirtMS, fb.DetectVirtMS = 0, 0
			if !reflect.DeepEqual(fa, fb) {
				t.Errorf("%s rep %d: fault records differ across identical runs:\n%+v\n%+v",
					s.ID(), i, a.Faults[i], b.Faults[i])
			}
		}
	}
}

func TestReplicateScenariosEndToEnd(t *testing.T) {
	specs := []Spec{
		{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryReplicate},
		{Program: "app.wave", Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryReplicate},
		{Program: "app.wave", Impl: core.ImplStdABI, ABI: core.ABINative, Ckpt: core.CkptNone,
			Fault: faults.KindRankCrash, Recovery: RecoveryReplicate},
	}
	rep := Run(specs, faultOptions(t))
	if rep.Failed != 0 {
		t.Fatalf("failures:\n%s", rep.Render())
	}
	for _, s := range specs {
		res := rep.Find(s.ID())
		if res == nil {
			t.Fatalf("scenario %s missing", s.ID())
		}
		if len(res.Faults) != 2 {
			t.Fatalf("%s: fault records for %d reps, want 2", s.ID(), len(res.Faults))
		}
		for _, fr := range res.Faults {
			if fr.Recovery != RecoveryReplicate {
				t.Errorf("%s rep %d: recovery mode %q", s.ID(), fr.Rep, fr.Recovery)
			}
			if fr.Promotions != 1 || fr.Shrinks != 0 || fr.Restarts != 0 {
				t.Errorf("%s rep %d: promotions=%d shrinks=%d restarts=%d, want 1/0/0",
					s.ID(), fr.Rep, fr.Promotions, fr.Shrinks, fr.Restarts)
			}
			if len(fr.Ranks) != 1 || !reflect.DeepEqual(fr.Promoted, fr.Ranks) {
				t.Errorf("%s rep %d: promoted %v != killed primaries %v", s.ID(), fr.Rep, fr.Promoted, fr.Ranks)
			}
			if fr.Step == 0 {
				t.Errorf("%s rep %d: fault record incomplete: %+v", s.ID(), fr.Rep, fr)
			}
			if fr.Survivors != 0 || fr.ImageDir != "" || fr.ImageStep != 0 {
				t.Errorf("%s rep %d: replicate cell leaked shrink/restart fields: %+v", s.ID(), fr.Rep, fr)
			}
		}
		if res.Time == nil || res.Time.Median <= 0 {
			t.Errorf("%s: no completion time", s.ID())
		}
	}

	// Determinism: same bar as the shrink cells — structural fields
	// exact, virtual times deliberately not compared.
	rep2 := Run(specs, faultOptions(t))
	for _, s := range specs {
		a, b := rep.Find(s.ID()), rep2.Find(s.ID())
		for i := range a.Faults {
			fa, fb := a.Faults[i], b.Faults[i]
			fa.DetectVirtMS, fb.DetectVirtMS = 0, 0
			if !reflect.DeepEqual(fa, fb) {
				t.Errorf("%s rep %d: fault records differ across identical runs:\n%+v\n%+v",
					s.ID(), i, a.Faults[i], b.Faults[i])
			}
		}
	}
}

func TestFindToleratesUnsortedReports(t *testing.T) {
	// A hand-assembled report (results not ID-sorted) must still answer
	// Find correctly via the linear fallback.
	r := &Report{Results: []Result{
		{ID: "z/last"}, {ID: "a/first"}, {ID: "m/middle"},
	}}
	for _, id := range []string{"z/last", "a/first", "m/middle"} {
		if got := r.Find(id); got == nil || got.ID != id {
			t.Fatalf("Find(%q) = %+v", id, got)
		}
	}
	if r.Find("q/absent") != nil {
		t.Fatal("absent ID found")
	}
}

// Run drains the queue longest-expected-first: with one worker, every
// crash cell paying checkpoint/restart legs runs before any plain cell,
// and equal expectations keep enumeration order.
func TestRunLeasesLongestExpectedFirst(t *testing.T) {
	var mu sync.Mutex
	var order []Spec
	withStubRunner(t, func(s Spec, o Options) Result {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
		return Result{ID: s.ID(), Spec: s, Status: StatusPass}
	})
	specs := DefaultMatrix().Enumerate()
	Run(specs, Options{Parallel: 1, Reps: 1})
	if len(order) != len(specs) {
		t.Fatalf("ran %d cells, want %d", len(order), len(specs))
	}
	lastCrash, firstPlain := -1, len(order)
	for i, s := range order {
		switch {
		case s.Fault == faults.KindNodeCrash || s.Fault == faults.KindRankCrash && s.Recovery == "":
			lastCrash = i
		case s.Fault == "" && !s.HasRestart() && s.Ckpt == core.CkptNone && i < firstPlain:
			firstPlain = i
		}
	}
	if lastCrash < 0 || lastCrash > firstPlain {
		t.Fatalf("a plain cell ran at %d, before the crash cell at %d", firstPlain, lastCrash)
	}
	var plain []string
	for _, s := range order[firstPlain:] {
		plain = append(plain, s.ID())
	}
	var want []string
	for _, s := range specs {
		if s.Fault == "" && !s.HasRestart() && s.Ckpt == core.CkptNone {
			want = append(want, s.ID())
		}
	}
	if strings.Join(plain, ",") != strings.Join(want, ",") {
		t.Fatalf("plain cells ran out of enumeration order:\n got %v\nwant %v", plain, want)
	}
}
