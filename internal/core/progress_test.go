package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// Core-level engine coverage: the event scheduler through the whole
// Launch/Wait/recovery surface, not just at the mpicore API
// (internal/mpicore's differential suite owns that layer) — every
// implementation launches, launches and recoveries are deterministic down
// to the virtual clocks, and checkpoint/restart composes with it.

// TestStackValidatesProgressMode: Stack.Progress is inert — "" and "event"
// name the one engine — and the removed engine's name is a Validate error,
// so Launch refuses it instead of silently running something else.
func TestStackValidatesProgressMode(t *testing.T) {
	s := testStack(ImplMPICH, ABINative, CkptNone, 2)
	for _, m := range []fabric.ProgressMode{"", fabric.ProgressEvent} {
		s.Progress = m
		if err := s.Validate(); err != nil {
			t.Errorf("Validate with Progress=%q: %v", m, err)
		}
	}
	for _, m := range []fabric.ProgressMode{"goroutine", "fibers"} {
		s.Progress = m
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted Progress=%q", m)
		}
		if _, err := Launch(s, "test.ring"); err == nil {
			t.Errorf("Launch accepted Progress=%q", m)
		}
	}
}

// TestEventModeLaunchAllImpls: every implementation personality runs its
// full app workload under the event scheduler with the expected result.
func TestEventModeLaunchAllImpls(t *testing.T) {
	for _, impl := range []Impl{ImplMPICH, ImplOpenMPI, ImplStdABI} {
		t.Run(string(impl), func(t *testing.T) {
			stack := testStack(impl, ABINative, CkptNone, 5)
			job, err := Launch(stack, "test.ring")
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 5; r++ {
				p := job.Program(r).(*ringProg)
				if want := p.expectedSum(5); p.Sum != want {
					t.Fatalf("rank %d sum = %d, want %d", r, p.Sum, want)
				}
			}
		})
	}
}

// TestEventModeLaunchDeterministic: the same 256-rank launch run 20
// times ends with identical virtual clocks on every rank. The run
// order, and with it the order ranks reserve NIC time, must not depend on
// how fast Start's goroutine spawns fibers against how fast rank 0 binds
// its stack: Start queues every fiber before the first dispatch.
func TestEventModeLaunchDeterministic(t *testing.T) {
	const n, runs = 256, 20
	var first []simnet.Time
	for i := 0; i < runs; i++ {
		stack := testStack(ImplMPICH, ABINative, CkptNone, n)
		job, err := Launch(stack, "test.ring.short")
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		clocks := make([]simnet.Time, n)
		for r := range clocks {
			clocks[r] = job.Clock(r)
		}
		if i == 0 {
			first = clocks
			continue
		}
		for r := range clocks {
			if clocks[r] != first[r] {
				t.Fatalf("run %d: rank %d clock %d, run 1 had %d", i+1, r, clocks[r], first[r])
			}
		}
	}
}

// TestEventModeCancelDeterministicError is the repeated companion of
// TestCancelReturnsErrCancelled: cancelling a job whose fibers sit
// parked in the scheduler must collapse to the ErrCancelled sentinel
// every time — never a raw closed-mailbox error from whichever fiber the
// token reached first. Repeated because the original bug class is a
// race between teardown and rank errors.
func TestEventModeCancelDeterministicError(t *testing.T) {
	for i := 0; i < 5; i++ {
		stack := testStack(ImplMPICH, ABINative, CkptNone, 4)
		job, err := Launch(stack, "test.ring.slow")
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(1+3*i) * time.Millisecond)
		job.Cancel()
		if err := job.Wait(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("iteration %d: Wait after Cancel = %v, want ErrCancelled", i, err)
		}
	}
}

// TestShrinkRecoveryDigestEventMode is the fault path's determinism
// test: the full kill → revoke → shrink → agree → continue cycle, run
// twice, ends with survivor digests equal to a survivors-only reference
// run and with identical virtual clocks on every survivor — a recovery is
// as reproducible as a clean launch.
func TestShrinkRecoveryDigestEventMode(t *testing.T) {
	const n, victim = 4, 2
	recovered := func() (digests []float64, clocks []simnet.Time) {
		t.Helper()
		stack := shrinkStack(ImplMPICH, ABINative, n)
		res, err := RunWithRecovery(stack, "test.shrink.ring", rankCrashInjector(t, stack, victim, 3),
			RecoveryPolicy{Mode: RecoveryShrink, LegTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Recoveries != 1 {
			t.Fatalf("completed=%v shrinks=%d", res.Completed, res.Recoveries)
		}
		for r := 0; r < n; r++ {
			if r == victim {
				continue
			}
			digests = append(digests, res.Job.Program(r).(*shrinkRing).Digest)
			clocks = append(clocks, res.Job.Clock(r))
		}
		return digests, clocks
	}
	want := refDigest(t, ImplMPICH, ABINative, n-1)
	digests, clocks := recovered()
	_, again := recovered()
	for i := range digests {
		if math.Abs(digests[i]-want) > 0 {
			t.Errorf("survivor %d digest %v != %d-rank reference %v", i, digests[i], n-1, want)
		}
		if clocks[i] != again[i] {
			t.Errorf("survivor %d clock %d, second run %d", i, clocks[i], again[i])
		}
	}
}

// TestEventModeCheckpointRestart: the full MANA checkpoint path — safe-
// point vote, quiesce barriers, counter-exchange drain of the in-flight
// ring messages, image write, fresh-world restart — composes with the
// event scheduler on both legs. (Plain DMTCP cannot capture mid-flight
// messages; the drain is MANA's job, which is exactly why it is the
// interesting layer to run over the event loop.)
func TestEventModeCheckpointRestart(t *testing.T) {
	stack := testStack(ImplMPICH, ABIMukautuva, CkptMANA, 3)
	dir := checkpointMidRun(t, stack, true)
	restarted, err := Restart(dir, stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		p := restarted.Program(r).(*ringProg)
		if want := p.expectedSum(3); p.Sum != want {
			t.Fatalf("rank %d sum after restart = %d, want %d", r, p.Sum, want)
		}
	}
}
