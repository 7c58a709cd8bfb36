package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
		ImageRoot: t.TempDir(), Interval: 2, MaxRestarts: 2, LegTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Restarts != 1 || len(res.Events) != 1 {
		t.Fatalf("result = completed=%v restarts=%d events=%d", res.Completed, res.Restarts, len(res.Events))
	}
	ev := res.Events[0]
	if ev.ImageDir == "" || ev.ImageStep == 0 || ev.ImageStep >= 6 {
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
					ImageRoot: t.TempDir(), Interval: 2, MaxRestarts: 2,
					RestartStack: &rstack, LegTimeout: time.Minute,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed || res.Restarts != 1 {
					t.Fatalf("completed=%v restarts=%d", res.Completed, res.Restarts)
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
		ImageRoot: t.TempDir(), Interval: 2, MaxRestarts: 2,
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

// Refusal: pairings the three-legged stool cannot support are rejected
// before any fault fires, not discovered mid-recovery.
func TestRecoveryRefusesInvalidPairings(t *testing.T) {
	cases := []struct {
		name          string
		stack, rstack Stack
		want          string
	}{
		{
			name:   "dmtcp_cross_impl",
			stack:  twoNodeStack(ImplMPICH, ABIMukautuva, CkptDMTCP, 1),
			rstack: twoNodeStack(ImplOpenMPI, ABIMukautuva, CkptDMTCP, 1),
			want:   "DMTCP",
		},
		{
			name:   "native_cross_impl",
			stack:  twoNodeStack(ImplMPICH, ABINative, CkptMANA, 1),
			rstack: twoNodeStack(ImplOpenMPI, ABINative, CkptMANA, 1),
			want:   "native",
		},
		{
			name:   "checkpointer_mismatch",
			stack:  twoNodeStack(ImplMPICH, ABIMukautuva, CkptDMTCP, 1),
			rstack: twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1),
			want:   "written by",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := rankCrashInjector(t, tc.stack, 0, 5)
			_, err := RunWithRecovery(tc.stack, "test.lockstep", inj, RecoveryPolicy{
				ImageRoot: t.TempDir(), RestartStack: &tc.rstack,
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want refusal mentioning %q", err, tc.want)
			}
		})
	}
	// No checkpointing package at all: nothing to recover from.
	stack := twoNodeStack(ImplMPICH, ABINative, CkptNone, 1)
	inj := rankCrashInjector(t, stack, 0, 5)
	if _, err := RunWithRecovery(stack, "test.lockstep", inj, RecoveryPolicy{ImageRoot: t.TempDir()}); err == nil {
		t.Fatal("recovery without a checkpointer accepted")
	}
}

// Plain DMTCP recovers under the identical stack: the baseline the paper
// grants the incumbent.
func TestRecoveryDMTCPSameStack(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptDMTCP, 1)
	inj := rankCrashInjector(t, stack, 2, 5)
	res, err := RunWithRecovery(stack, "test.lockstep", inj, RecoveryPolicy{
		ImageRoot: t.TempDir(), Interval: 2, MaxRestarts: 2, LegTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Restarts != 1 {
		t.Fatalf("completed=%v restarts=%d", res.Completed, res.Restarts)
	}
}

// A failure that beats the first complete image relaunches from scratch
// and still completes.
func TestRecoveryScratchRelaunch(t *testing.T) {
	stack := twoNodeStack(ImplMPICH, ABIMukautuva, CkptMANA, 1)
	inj := rankCrashInjector(t, stack, 1, 2)
	res, err := RunWithRecovery(stack, "test.lockstep.short", inj, RecoveryPolicy{
		ImageRoot: t.TempDir(), Interval: 5, MaxRestarts: 2, LegTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Restarts != 1 {
		t.Fatalf("completed=%v restarts=%d", res.Completed, res.Restarts)
	}
	if ev := res.Events[0]; ev.ImageDir != "" || ev.ImageStep != 0 {
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
		ImageRoot: t.TempDir(), Interval: 2, MaxRestarts: 1, LegTimeout: time.Minute,
	})
	if rerr == nil {
		t.Fatal("exhausted budget reported success")
	}
	var rf *RankFailure
	if !errors.As(rerr, &rf) || rf.Ranks[0] != 3 {
		t.Fatalf("budget error = %v, want wrapped RankFailure for rank 3", rerr)
	}
	if res.Completed || res.Restarts != 1 || len(res.Events) != 2 {
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
	dir, meta, ok := dmtcp.LatestComplete(root, 4)
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
	if dir, meta, ok = dmtcp.LatestComplete(root, 4); !ok || meta.Step != 9 {
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
	src, meta, ok := dmtcp.LatestComplete(donor, 4)
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
				ImageRoot: root, Interval: 2, MaxRestarts: 1, LegTimeout: time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Restarts != 1 || len(res.Events) != 1 {
				t.Fatalf("completed=%v restarts=%d events=%d", res.Completed, res.Restarts, len(res.Events))
			}
			if ev := res.Events[0]; ev.ImageStep != 4 || ev.ImageDir != dmtcp.PeriodicDir(root, 4) || ev.ImageVirt <= 0 {
				t.Fatalf("recovered from %q (step %d, virt %v), want the step-4 set behind the fault", ev.ImageDir, ev.ImageStep, ev.ImageVirt)
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
