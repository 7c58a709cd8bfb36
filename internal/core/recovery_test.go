package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/dmtcp"
	"repro/internal/faults"
	"repro/internal/simnet"
)

// pingpongProg is a strictly alternating two-rank round trip: exactly one
// message is ever on the wire, so the jitter stream is consumed in a
// deterministic order and the completion time is a pure function of the
// network seed — the workload for the seed-provenance regression test.
type pingpongProg struct {
	Total int
	Iter  int
}

func (p *pingpongProg) Setup(env *abi.Env) error { return nil }

func (p *pingpongProg) Step(env *abi.Env) (bool, error) {
	buf := make([]byte, 8)
	var st abi.Status
	if env.Rank() == 0 {
		if err := env.T.Send(buf, 1, env.TypeInt64, 1, 9, env.CommWorld); err != nil {
			return false, err
		}
		if err := env.T.Recv(buf, 1, env.TypeInt64, 1, 9, env.CommWorld, &st); err != nil {
			return false, err
		}
	} else {
		if err := env.T.Recv(buf, 1, env.TypeInt64, 0, 9, env.CommWorld, &st); err != nil {
			return false, err
		}
		if err := env.T.Send(buf, 1, env.TypeInt64, 0, 9, env.CommWorld); err != nil {
			return false, err
		}
	}
	p.Iter++
	return p.Iter >= p.Total, nil
}

func init() {
	RegisterProgram("test.pingpong", func() Program { return &pingpongProg{Total: 40} })
	RegisterProgram("test.lockstep.short", func() Program { return &lockstepProg{Total: 10} })
}

// twoNodeStack is a 2x2 cluster (crossing node boundaries, jitter on).
func twoNodeStack(impl Impl, abiMode ABIMode, ckpt CkptMode, seed int64) Stack {
	s := DefaultStack(impl, abiMode, ckpt)
	s.Net.Nodes = 2
	s.Net.RanksPerNode = 2
	s.Net.Seed = seed
	return s
}

func rankCrashInjector(t *testing.T, stack Stack, rank int, step uint64) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
		{Kind: faults.KindRankCrash, Rank: rank, Node: faults.Anywhere, Step: step},
	}}, 1, stack.Net)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestWaitReturnsTypedRankFailure(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	inj := rankCrashInjector(t, stack, 2, 5)
	job, err := Launch(stack, "test.ring", WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	err = job.Wait()
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("Wait() = %v, want *RankFailure", err)
	}
	if len(rf.Ranks) != 1 || rf.Ranks[0] != 2 || rf.Step != 5 || rf.Node != -1 {
		t.Fatalf("failure = %+v", rf)
	}
	if rf.Detected <= 0 {
		t.Fatal("failure carries no virtual detection time")
	}
	// The message is stable: no clocks, no rank-order noise.
	if want := "core: rank(s) [2] crashed before step 5"; rf.Error() != want {
		t.Fatalf("Error() = %q, want %q", rf.Error(), want)
	}
}

func TestRecoverySameImplementation(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	inj := rankCrashInjector(t, stack, 1, 6)
	res, err := RunWithRecovery(stack, "test.ring", inj, RecoveryPolicy{
		ImageRoot: t.TempDir(), Interval: 2, MaxRecoveries: 2, LegTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 1 || len(res.Events) != 1 {
		t.Fatalf("result = completed=%v restarts=%d events=%d", res.Completed, res.Recoveries, len(res.Events))
	}
	ev := res.Events[0]
	if ev.ImageSet == "" || ev.ImageStep == 0 || ev.ImageStep >= 6 {
		t.Fatalf("event = %+v, want an image behind the fault", ev)
	}
	if ev.LostVirt <= 0 || ev.Detected <= ev.ImageVirt {
		t.Fatalf("recomputation window not measured: %+v", ev)
	}
	want := (&ringProg{Total: 40}).expectedSum(4)
	for r := 0; r < 4; r++ {
		if got := res.Job.Program(r).(*ringProg).Sum; got != want {
			t.Fatalf("rank %d sum after recovery = %d, want %d", r, got, want)
		}
	}
}

// Where images live is only the sink: the same cross-implementation
// recovery run over a directory store and over a memory store records
// the same events, restores the same set and finishes with the same
// state and clocks — and the memory run leaves no file behind.
func TestRecoveryFromMemoryMatchesDirectory(t *testing.T) {
	stack := twoNodeStack(ImplOpenMPI, ABIMukautuva, CkptMANA, 1)
	rstack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	run := func(root string, opts ...LaunchOption) *RecoveryResult {
		t.Helper()
		res, err := RunWithRecovery(stack, "test.ring", rankCrashInjector(t, stack, 1, 6), RecoveryPolicy{
			ImageRoot: root, Interval: 2, RestartStack: &rstack, MaxRecoveries: 2, LegTimeout: time.Minute,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	root := t.TempDir()
	mem := run(root, WithImages(dmtcp.NewMem()))
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Fatalf("memory run wrote %d entries under its image root (%v)", len(entries), err)
	}
	disk := run(root)
	if !reflect.DeepEqual(disk.Events, mem.Events) || disk.Recoveries != mem.Recoveries {
		t.Fatalf("events differ:\ndir %+v\nmem %+v", disk.Events, mem.Events)
	}
	if ev := mem.Events[0]; ev.ImageSet != dmtcp.PeriodicDir(root, 4) || ev.LostVirt <= 0 {
		t.Fatalf("memory run recovered from %+v", ev)
	}
	for r := 0; r < 4; r++ {
		if d, m := disk.Job.Program(r).(*ringProg).Sum, mem.Job.Program(r).(*ringProg).Sum; d != m {
			t.Fatalf("rank %d sum: dir %d, mem %d", r, d, m)
		}
		if d, m := disk.Job.Clock(r), mem.Job.Clock(r); d != m {
			t.Fatalf("rank %d clock: dir %v, mem %v", r, d, m)
		}
	}
}

// The paper's headline, now under failure: every valid cross-restart
// pairing recovers under the other implementation.
func TestRecoveryCrossImplementationPairings(t *testing.T) {
	for _, abiMode := range []ABIMode{ABIMukautuva, ABIWi4MPI} {
		for _, pair := range []struct{ from, to Impl }{
			{ImplOpenMPI, ImplMPICH},
			{ImplMPICH, ImplOpenMPI},
		} {
			t.Run(fmt.Sprintf("%s/%s_to_%s", abiMode, pair.from, pair.to), func(t *testing.T) {
				stack := twoNodeStack(pair.from, abiMode, CkptMANA, 1)
				rstack := twoNodeStack(pair.to, abiMode, CkptMANA, 1)
				inj := rankCrashInjector(t, stack, 3, 7)
				res, err := RunWithRecovery(stack, "test.ring", inj, RecoveryPolicy{
					ImageRoot: t.TempDir(), Interval: 2, MaxRecoveries: 2,
					RestartStack: &rstack, LegTimeout: time.Minute,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed || res.Recoveries != 1 {
					t.Fatalf("completed=%v restarts=%d", res.Completed, res.Recoveries)
				}
				if got := res.Job.Stack().Impl; got != pair.to {
					t.Fatalf("recovered under %s, want %s", got, pair.to)
				}
				want := (&ringProg{Total: 40}).expectedSum(4)
				for r := 0; r < 4; r++ {
					if got := res.Job.Program(r).(*ringProg).Sum; got != want {
						t.Fatalf("rank %d sum = %d, want %d", r, got, want)
					}
				}
			})
		}
	}
}

func TestRecoveryNodeCrash(t *testing.T) {
	stack := twoNodeStack(ImplOpenMPI, ABIMukautuva, CkptMANA, 1)
	rstack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
		{Kind: faults.KindNodeCrash, Rank: faults.Anywhere, Node: 0, Step: 6},
	}}, 1, stack.Net)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := RunWithRecovery(stack, "test.ring", inj, RecoveryPolicy{
		ImageRoot: t.TempDir(), Interval: 2, MaxRecoveries: 2,
		RestartStack: &rstack, LegTimeout: time.Minute,
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !res.Completed {
		t.Fatal("node crash not recovered")
	}
	rf := res.Events[0].Failure
	if rf.Node != 0 || len(rf.Ranks) != 2 || rf.Ranks[0] != 0 || rf.Ranks[1] != 1 {
		t.Fatalf("node-crash failure = %+v", rf)
	}
}

// Refusal: what a mode cannot run is rejected before any fault fires —
// pairings the three-legged stool cannot support, a checkpointer or a
// restart leg under an in-place mode — and a budget that runs out is
// returned, not absorbed. Fatal faults under shrink and shrink+replicate
// on one job no longer exist to refuse: the mode decides fatality.
func TestRecoveryRefusesInvalidPairings(t *testing.T) {
	root := t.TempDir()
	mana4 := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	plain := shrinkStack(ImplMPICH, ABINative, 4)
	stackPtr := func(s Stack) *Stack { return &s }
	cases := []struct {
		name  string
		stack Stack
		pol   RecoveryPolicy
		crash []faults.Spec // nil: rank 1 dies before step 2
		want  string
	}{
		{
			name:  "dmtcp_cross_impl",
			stack: twoNodeStack(ImplMPICH, ABIMukautuva, CkptDMTCP, 1),
			pol:   RecoveryPolicy{ImageRoot: root, RestartStack: stackPtr(twoNodeStack(ImplOpenMPI, ABIMukautuva, CkptDMTCP, 1))},
			want:  "DMTCP",
		},
		{
			name:  "native_cross_impl",
			stack: twoNodeStack(ImplMPICH, ABINative, CkptMANA, 1),
			pol:   RecoveryPolicy{ImageRoot: root, RestartStack: stackPtr(twoNodeStack(ImplOpenMPI, ABINative, CkptMANA, 1))},
			want:  "native",
		},
		{
			name:  "checkpointer_mismatch",
			stack: twoNodeStack(ImplMPICH, ABIMukautuva, CkptDMTCP, 1),
			pol:   RecoveryPolicy{ImageRoot: root, RestartStack: stackPtr(mana4)},
			want:  "written by",
		},
		{
			// No checkpointing package at all: nothing to restart from.
			name:  "restart_without_checkpointer",
			stack: plain,
			pol:   RecoveryPolicy{ImageRoot: root},
			want:  "checkpointing package",
		},
		{
			name:  "restart_without_image_root",
			stack: mana4,
			want:  "image root",
		},
		{
			name:  "shrink_with_checkpointer",
			stack: mana4,
			pol:   RecoveryPolicy{Mode: RecoveryShrink},
			want:  "checkpoint-free",
		},
		{
			name:  "replicate_with_checkpointer",
			stack: mana4,
			pol:   RecoveryPolicy{Mode: RecoveryReplicate},
			want:  "checkpoint-free",
		},
		{
			name:  "shrink_with_restart_stack",
			stack: plain,
			pol:   RecoveryPolicy{Mode: RecoveryShrink, RestartStack: stackPtr(plain)},
			want:  "never restarts",
		},
		{
			name:  "replicate_with_interval",
			stack: plain,
			pol:   RecoveryPolicy{Mode: RecoveryReplicate, Interval: 2},
			want:  "checkpoint interval",
		},
		{
			name:  "shrink_node_crash",
			stack: twoNodeStack(ImplMPICH, ABINative, CkptNone, 1),
			pol:   RecoveryPolicy{Mode: RecoveryShrink},
			crash: []faults.Spec{{Kind: faults.KindNodeCrash, Node: 1, Step: 2}},
			want:  "rank crashes",
		},
		{
			name:  "unknown_mode",
			stack: plain,
			pol:   RecoveryPolicy{Mode: "regrow"},
			want:  "unknown recovery mode",
		},
		{
			// Two crashes, one shrink allowed: the second failure is the
			// job's error, not a second recovery.
			name:  "shrink_budget_exhausted",
			stack: shrinkStack(ImplMPICH, ABINative, 5),
			pol:   RecoveryPolicy{Mode: RecoveryShrink, MaxRecoveries: 1, LegTimeout: time.Minute},
			crash: []faults.Spec{
				{Kind: faults.KindRankCrash, Rank: 1, Step: 2},
				{Kind: faults.KindRankCrash, Rank: 4, Step: 5},
			},
			want: "shrink budget exhausted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.crash == nil {
				tc.crash = []faults.Spec{{Kind: faults.KindRankCrash, Rank: 1, Step: 2}}
			}
			inj, err := faults.NewInjector(faults.Plan{Faults: tc.crash}, 1, tc.stack.Net)
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunWithRecovery(tc.stack, "test.shrink.ring", inj, tc.pol)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want refusal mentioning %q", err, tc.want)
			}
		})
	}
}

// Plain DMTCP recovers under the identical stack: the baseline the paper
// grants the incumbent.
func TestRecoveryDMTCPSameStack(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptDMTCP, 1)
	inj := rankCrashInjector(t, stack, 2, 5)
	res, err := RunWithRecovery(stack, "test.lockstep", inj, RecoveryPolicy{
		ImageRoot: t.TempDir(), Interval: 2, MaxRecoveries: 2, LegTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 1 {
		t.Fatalf("completed=%v restarts=%d", res.Completed, res.Recoveries)
	}
}

// A failure that beats the first complete image relaunches from scratch
// and still completes.
func TestRecoveryScratchRelaunch(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	inj := rankCrashInjector(t, stack, 1, 2)
	res, err := RunWithRecovery(stack, "test.lockstep.short", inj, RecoveryPolicy{
		ImageRoot: t.TempDir(), Interval: 5, MaxRecoveries: 2, LegTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 1 {
		t.Fatalf("completed=%v restarts=%d", res.Completed, res.Recoveries)
	}
	if ev := res.Events[0]; ev.ImageSet != "" || ev.ImageStep != 0 {
		t.Fatalf("scratch relaunch recorded an image: %+v", ev)
	}
}

func TestRecoveryBudgetExhausted(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
		{Kind: faults.KindRankCrash, Rank: 0, Node: faults.Anywhere, Step: 4},
		{Kind: faults.KindRankCrash, Rank: 3, Node: faults.Anywhere, Step: 8},
	}}, 1, stack.Net)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := RunWithRecovery(stack, "test.ring", inj, RecoveryPolicy{
		ImageRoot: t.TempDir(), Interval: 2, MaxRecoveries: 1, LegTimeout: time.Minute,
	})
	if rerr == nil {
		t.Fatal("exhausted budget reported success")
	}
	var rf *RankFailure
	if !errors.As(rerr, &rf) || rf.Ranks[0] != 3 {
		t.Fatalf("budget error = %v, want wrapped RankFailure for rank 3", rerr)
	}
	if res.Completed || res.Recoveries != 1 || len(res.Events) != 2 {
		t.Fatalf("result = %+v", res)
	}
}

// Periodic checkpointing builds a scannable image lineage even without
// faults, and the scan picks the newest complete set.
func TestPeriodicCheckpointLineage(t *testing.T) {
	root := t.TempDir()
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	job, err := Launch(stack, "test.lockstep.short", WithPeriodicCheckpoint(root, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []uint64{3, 6, 9} {
		if _, err := os.Stat(dmtcp.PeriodicDir(root, step)); err != nil {
			t.Fatalf("missing periodic image at step %d: %v", step, err)
		}
	}
	dir, meta, ok := dmtcp.LatestComplete(dmtcp.Dir(""), root, 4)
	if !ok || meta.Step != 9 || dir != dmtcp.PeriodicDir(root, 9) {
		t.Fatalf("LatestComplete = %q step %d ok=%v", dir, meta.Step, ok)
	}
	// An incomplete (partial) newer set is skipped, not resumed.
	partial := dmtcp.PeriodicDir(root, 12)
	if err := os.MkdirAll(partial, 0o755); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dmtcp.PeriodicDir(root, 9), "meta.gob")); err == nil {
		if err := os.WriteFile(filepath.Join(partial, "meta.gob"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if dir, meta, ok = dmtcp.LatestComplete(dmtcp.Dir(""), root, 4); !ok || meta.Step != 9 {
		t.Fatalf("partial image set not skipped: %q step %d ok=%v", dir, meta.Step, ok)
	}
	// And the images are restartable.
	restarted, err := Restart(dmtcp.PeriodicDir(root, 6), stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicCheckpointRequiresCheckpointer(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABINative, CkptNone, 1)
	if _, err := Launch(stack, "test.lockstep", WithPeriodicCheckpoint(t.TempDir(), 2)); err == nil {
		t.Fatal("periodic checkpointing without a checkpointer accepted")
	}
}

// Regression for the seed-provenance bug: Restart used to build the new
// world from whatever stack.Net.Seed the caller passed — an unset seed
// silently ran a different jitter stream than the image's environment,
// and the new meta recorded the wrong provenance.
func TestRestartDefaultsToImageSeed(t *testing.T) {
	const seed = 424242
	stack := DefaultStack(ImplMPICH, ABIMukautuva, CkptMANA)
	stack.Net.Nodes = 2
	stack.Net.RanksPerNode = 1
	stack.Net.JitterFrac = 0.5 // amplify the seed's effect
	stack.Net.Seed = seed

	dir := filepath.Join(t.TempDir(), "ckpt")
	job, err := Launch(stack, "test.pingpong", WithHold())
	if err != nil {
		t.Fatal(err)
	}
	ckpt := job.CheckpointAsync(dir, false)
	job.Start()
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	// Restart legs under the same effective seed must replay the same
	// jitter stream and land on identical virtual completion times.
	restartTime := func(t *testing.T, s Stack) (simnet.Time, *Job) {
		t.Helper()
		r, err := Restart(dir, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		return r.Clock(0), r
	}
	unset := stack
	unset.Net.Seed = 0 // the buggy path: must now default to the image's seed
	tUnset, rUnset := restartTime(t, unset)
	explicit := stack
	explicit.Net.Seed = seed
	tExplicit, _ := restartTime(t, explicit)
	if tUnset != tExplicit {
		t.Fatalf("unset-seed restart diverged from image-seed restart: %v vs %v", tUnset, tExplicit)
	}
	if got := rUnset.Stack().Net.Seed; got != seed {
		t.Fatalf("restart recorded seed %d, want the image's %d", got, seed)
	}
	other := stack
	other.Net.Seed = seed + 1
	if tOther, _ := restartTime(t, other); tOther == tUnset {
		t.Fatal("a different seed produced an identical jitter stream; the seed is not reaching the network")
	}
}

// Cancellation collapses to the stable sentinel, whatever rank noticed
// the closing fabric first.
func TestCancelReturnsErrCancelled(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 4), "test.ring.slow")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	job.Cancel()
	if err := job.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Wait after Cancel = %v, want ErrCancelled", err)
	}
}

// Cancel landing on an already-completed job is not a cancellation: the
// run finished, and Wait must say so (the completed-at-the-bound case of
// WaitTimeout).
func TestCancelAfterCompletionIsNotATimeout(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 2), "test.lockstep")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait after post-completion Cancel = %v, want nil", err)
	}
}

// A genuine failure that precedes Cancel is not masked by it.
func TestCancelKeepsEarlierGenuineFailure(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 2), "test.panic")
	if err != nil {
		t.Fatal(err)
	}
	// Let the panic land, then cancel the corpse.
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		job.mu.Lock()
		n := len(job.errs)
		job.mu.Unlock()
		if n > 0 {
			break
		}
	}
	job.Cancel()
	err = job.Wait()
	if errors.Is(err, ErrCancelled) || err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Wait = %v, want the original panic error", err)
	}
}

// The newest image set is the one a failure is most likely to have
// interrupted. Recovery must judge it by its contents: with the newest set
// damaged in any way, the run restarts from the set before it and still
// completes correctly.
func TestRecoveryFallsBackPastDamagedNewestSet(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	// A sound set to damage: the last periodic image of a fault-free run,
	// from a step (40) the faulted runs below only reach after recovering.
	donor := t.TempDir()
	job, err := Launch(stack, "test.ring", WithPeriodicCheckpoint(donor, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	src, meta, ok := dmtcp.LatestComplete(dmtcp.Dir(""), donor, 4)
	if !ok || meta.Step != 40 {
		t.Fatalf("donor lineage: %q step %d ok=%v", src, meta.Step, ok)
	}
	const victim = "rank_0002.img"
	good, err := os.ReadFile(filepath.Join(src, victim))
	if err != nil {
		t.Fatal(err)
	}
	h, err := dmtcp.ReadRankHeader(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	const header = 40 // docs/recovery.md, "Checkpoint image format"
	if int64(len(good)) != header+h.BlobLen+h.StateLen+16 || h.BlobLen == 0 || h.StateLen == 0 {
		t.Fatalf("donor image: %d bytes, header %+v", len(good), h)
	}
	flip := func(off int) []byte {
		d := append([]byte(nil), good...)
		d[off] ^= 0x5a
		return d
	}
	for name, damaged := range map[string][]byte{
		"cut after header":       good[:header],
		"cut after plugin blob":  good[:header+h.BlobLen],
		"cut after state":        good[:header+h.BlobLen+h.StateLen],
		"cut at interior offset": good[:1+rand.New(rand.NewSource(7)).Intn(len(good)-1)],
		"magic flipped":          flip(3),
		"version flipped":        flip(8),
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			newest := dmtcp.PeriodicDir(root, meta.Step)
			if err := os.MkdirAll(newest, 0o755); err != nil {
				t.Fatal(err)
			}
			files, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join(src, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if f.Name() == victim {
					data = damaged
				}
				if err := os.WriteFile(filepath.Join(newest, f.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			res, err := RunWithRecovery(stack, "test.ring", rankCrashInjector(t, stack, 1, 6), RecoveryPolicy{
				ImageRoot: root, Interval: 2, MaxRecoveries: 1, LegTimeout: time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Recoveries != 1 || len(res.Events) != 1 {
				t.Fatalf("completed=%v restarts=%d events=%d", res.Completed, res.Recoveries, len(res.Events))
			}
			if ev := res.Events[0]; ev.ImageStep != 4 || ev.ImageSet != dmtcp.PeriodicDir(root, 4) || ev.ImageVirt <= 0 {
				t.Fatalf("recovered from %q (step %d, virt %v), want the step-4 set behind the fault", ev.ImageSet, ev.ImageStep, ev.ImageVirt)
			}
			want := (&ringProg{Total: 40}).expectedSum(4)
			for r := 0; r < 4; r++ {
				if got := res.Job.Program(r).(*ringProg).Sum; got != want {
					t.Fatalf("rank %d sum after recovery = %d, want %d", r, got, want)
				}
			}
		})
	}
}

// shrinkRing is a lockstep collective-per-step workload for the mode
// digest table: every step allreduces the world's rank sum and
// accumulates it into Digest, so the final digest is a strict function of
// (membership, step count) — a 3-survivor recovered run must produce
// exactly a 3-rank reference run's digest. The per-step collective also
// guarantees the rank kill lands mid-collective for the survivors: they
// are inside the allreduce when the victim's death is announced.
type shrinkRing struct {
	Total  int
	Iter   int
	Digest float64
}

func (p *shrinkRing) Setup(env *abi.Env) error {
	p.Iter = 0
	p.Digest = 0
	return nil
}

func (p *shrinkRing) Step(env *abi.Env) (bool, error) {
	in := abi.Int64Bytes([]int64{int64(env.Rank() + 1)})
	out := make([]byte, 8)
	if err := env.T.Allreduce(in, out, 1, env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	p.Digest = p.Digest*31 + float64(abi.Int64sOf(out)[0])
	p.Iter++
	return p.Iter >= p.Total, nil
}

func init() {
	RegisterProgram("test.shrink.ring", func() Program { return &shrinkRing{Total: 8} })
}

// shrinkStack builds a checkpointer-free n-rank single-node stack.
func shrinkStack(impl Impl, abiMode ABIMode, n int) Stack {
	s := DefaultStack(impl, abiMode, CkptNone)
	s.Net = simnet.SingleNode(n)
	return s
}

// refDigest runs the ring on a fresh fault-free unreplicated world of n
// ranks and returns its digest.
func refDigest(t *testing.T, impl Impl, abiMode ABIMode, n int) float64 {
	t.Helper()
	job, err := Launch(shrinkStack(impl, abiMode, n), "test.shrink.ring")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return job.Program(0).(*shrinkRing).Digest
}

// testModeDigests is the digest table: every recovery mode × every
// implementation, native and through each binding that reaches it. Kill
// rank 2 of 4 before step 3 (mid-collective for the survivors), recover,
// and require every surviving logical rank's digest to be bit-identical
// to the mode's reference: the uninterrupted run for restart (the image
// replays what the crash threw away), a survivors-only 3-rank run for
// shrink (the shrunken world is a real communicator, not a limping one),
// and the fault-free run for replicate (failover is transparent: same
// membership, same results).
func testModeDigests(t *testing.T, mode RecoveryMode) {
	const n, victim = 4, 2
	for _, tc := range []struct {
		impl Impl
		abi  ABIMode
	}{
		{ImplMPICH, ABINative},
		{ImplOpenMPI, ABINative},
		{ImplStdABI, ABINative},
		{ImplMPICH, ABIMukautuva},
		{ImplOpenMPI, ABIMukautuva},
		{ImplStdABI, ABIMukautuva},
		{ImplOpenMPI, ABIWi4MPI},
	} {
		t.Run(fmt.Sprintf("%s_%s", tc.impl, tc.abi), func(t *testing.T) {
			stack := shrinkStack(tc.impl, tc.abi, n)
			pol := RecoveryPolicy{Mode: mode, LegTimeout: time.Minute}
			ref := n
			switch mode {
			case RecoveryRestart:
				stack.Ckpt = CkptMANA
				pol.ImageRoot, pol.Interval = t.TempDir(), 2
			case RecoveryShrink:
				ref = n - 1
			}
			res, err := RunWithRecovery(stack, "test.shrink.ring", rankCrashInjector(t, stack, victim, 3), pol)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Recoveries != 1 || len(res.Events) != 1 {
				t.Fatalf("completed=%v recoveries=%d events=%+v", res.Completed, res.Recoveries, res.Events)
			}
			ev := res.Events[0]
			if len(ev.Failure.Ranks) != 1 || ev.Failure.Ranks[0] != victim || ev.Detected != ev.Failure.Detected {
				t.Fatalf("event = %+v, failure = %+v", ev, ev.Failure)
			}
			switch mode {
			case RecoveryRestart:
				if ev.ImageStep != 2 || ev.Survivors != 0 || ev.Promoted != nil {
					t.Fatalf("restart event = %+v, want the step-2 image", ev)
				}
			case RecoveryShrink:
				if ev.Survivors != n-1 || ev.Recovered <= ev.Detected || ev.ImageSet != "" {
					t.Fatalf("shrink event = %+v, want %d survivors", ev, n-1)
				}
			case RecoveryReplicate:
				if len(ev.Promoted) != 1 || ev.Promoted[0] != victim || ev.Survivors != 0 {
					t.Fatalf("replicate event = %+v, want [%d] promoted", ev, victim)
				}
			}
			want := refDigest(t, tc.impl, tc.abi, ref)
			for r := 0; r < n; r++ {
				if mode == RecoveryShrink && r == victim {
					continue
				}
				if got := res.Job.LogicalProgram(r).(*shrinkRing).Digest; got != want {
					t.Fatalf("logical rank %d digest %v != %d-rank reference %v", r, got, ref, want)
				}
			}
		})
	}
}

func TestRestartRecoveryDigestAllImpls(t *testing.T) { testModeDigests(t, RecoveryRestart) }
func TestShrinkRecoveryDigestAllImpls(t *testing.T)  { testModeDigests(t, RecoveryShrink) }
func TestReplicationDigestAllImpls(t *testing.T)     { testModeDigests(t, RecoveryReplicate) }

// TestShrinkSurvivesConsecutiveFailures drives two separate crashes
// through one shrink-mode job: shrink from 5 to 4, then from 4 to 3, with
// the final digest matching a 3-rank reference and one event per failure.
func TestShrinkSurvivesConsecutiveFailures(t *testing.T) {
	const n = 5
	stack := shrinkStack(ImplMPICH, ABINative, n)
	inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
		{Kind: faults.KindRankCrash, Rank: 1, Step: 2},
		{Kind: faults.KindRankCrash, Rank: 4, Step: 5},
	}}, 1, stack.Net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithRecovery(stack, "test.shrink.ring", inj,
		RecoveryPolicy{Mode: RecoveryShrink, LegTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 2 || len(res.Events) != 2 {
		t.Fatalf("completed=%v recoveries=%d events=%+v", res.Completed, res.Recoveries, res.Events)
	}
	for i, want := range []struct{ rank, survivors int }{{1, n - 1}, {4, n - 2}} {
		if ev := res.Events[i]; ev.Failure.Ranks[0] != want.rank || ev.Survivors != want.survivors {
			t.Errorf("event %d = %+v, want rank %d → %d survivors", i, ev, want.rank, want.survivors)
		}
	}
	want := refDigest(t, ImplMPICH, ABINative, n-2)
	if got := res.Job.Program(0).(*shrinkRing).Digest; got != want {
		t.Fatalf("digest %v != 3-rank reference %v", got, want)
	}
}

// TestReplicationFaultFree runs a replicated job with no injector at
// all: the steady-state (overhead-measuring) configuration. Both
// replicas of every logical rank must complete with the reference
// digest, and the replicated run's virtual completion time must exceed
// the unreplicated reference's — the duplicate traffic costs virtual
// time, which is exactly what the recoveryfrontier figure measures.
func TestReplicationFaultFree(t *testing.T) {
	const n = 4
	ref, err := Launch(shrinkStack(ImplMPICH, ABINative, n), "test.shrink.ring")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(); err != nil {
		t.Fatal(err)
	}
	want := ref.Program(0).(*shrinkRing).Digest

	res, err := RunWithRecovery(shrinkStack(ImplMPICH, ABINative, n), "test.shrink.ring", nil,
		RecoveryPolicy{Mode: RecoveryReplicate, LegTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 0 || len(res.Events) != 0 {
		t.Fatalf("completed=%v recoveries=%d events=%d", res.Completed, res.Recoveries, len(res.Events))
	}
	for phys := 0; phys < 2*n; phys++ {
		if got := res.Job.Program(phys).(*shrinkRing).Digest; got != want {
			t.Fatalf("physical rank %d digest %v != reference %v", phys, got, want)
		}
	}
	var refMax, repMax time.Duration
	for r := 0; r < n; r++ {
		if c := time.Duration(ref.Clock(r)); c > refMax {
			refMax = c
		}
		if c := time.Duration(res.Job.LogicalClock(r)); c > repMax {
			repMax = c
		}
	}
	if repMax <= refMax {
		t.Fatalf("replicated completion %v not slower than unreplicated %v", repMax, refMax)
	}
}

// TestReplicationFailoverDeterministic is failover's determinism test: a
// primary killed mid-run under Open MPI behind Mukautuva, twice — every
// logical rank ends with the fault-free reference digest and with the
// same virtual completion clock both times.
func TestReplicationFailoverDeterministic(t *testing.T) {
	const n, victim = 4, 1
	want := refDigest(t, ImplOpenMPI, ABIMukautuva, n)
	var first []simnet.Time
	for run := 0; run < 2; run++ {
		stack := shrinkStack(ImplOpenMPI, ABIMukautuva, n)
		res, err := RunWithRecovery(stack, "test.shrink.ring", rankCrashInjector(t, stack, victim, 3),
			RecoveryPolicy{Mode: RecoveryReplicate, LegTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Recoveries != 1 {
			t.Fatalf("completed=%v promotions=%d", res.Completed, res.Recoveries)
		}
		clocks := make([]simnet.Time, n)
		for r := 0; r < n; r++ {
			if got := res.Job.LogicalProgram(r).(*shrinkRing).Digest; got != want {
				t.Fatalf("logical rank %d digest %v != fault-free reference %v", r, got, want)
			}
			clocks[r] = res.Job.LogicalClock(r)
		}
		if run == 0 {
			first = clocks
			continue
		}
		for r := range clocks {
			if clocks[r] != first[r] {
				t.Errorf("logical rank %d clock %d, first run %d", r, clocks[r], first[r])
			}
		}
	}
}
