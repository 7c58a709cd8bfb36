package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/simnet"
)

// Core-level event-mode coverage: the ProgressMode knob must behave
// identically through the whole Launch/Wait/recovery surface, not just
// at the mpicore API (internal/mpicore's differential suite owns that
// layer).

func TestStackValidatesProgressMode(t *testing.T) {
	s := testStack(ImplMPICH, ABINative, CkptNone, 2)
	for _, m := range []ProgressMode{"", ProgressGoroutine, ProgressEvent} {
		s.Progress = m
		if err := s.Validate(); err != nil {
			t.Errorf("Validate with Progress=%q: %v", m, err)
		}
	}
	s.Progress = "fibers"
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted Progress=\"fibers\"")
	}
}

// TestEventModeLaunchAllImpls: every implementation personality runs its
// full app workload under the event scheduler with the same result as
// always — ProgressMode is a schedule, not a semantic.
func TestEventModeLaunchAllImpls(t *testing.T) {
	for _, impl := range []Impl{ImplMPICH, ImplOpenMPI, ImplStdABI} {
		t.Run(string(impl), func(t *testing.T) {
			stack := testStack(impl, ABINative, CkptNone, 5)
			stack.Progress = ProgressEvent
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

// TestEventModeLaunchDeterministic: the same 256-rank event-mode launch
// run 20 times ends with identical virtual clocks on every rank. The run
// order, and with it the order ranks reserve NIC time, must not depend on
// how fast Start's goroutine spawns fibers against how fast rank 0 binds
// its stack: Start queues every fiber before the first dispatch.
func TestEventModeLaunchDeterministic(t *testing.T) {
	const n, runs = 256, 20
	var first []simnet.Time
	for i := 0; i < runs; i++ {
		stack := testStack(ImplMPICH, ABINative, CkptNone, n)
		stack.Progress = ProgressEvent
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

// TestEventModeAppDigestMatchesGoroutine runs the same deterministic app
// under both engines and compares final program state per rank.
func TestEventModeAppDigestMatchesGoroutine(t *testing.T) {
	run := func(mode ProgressMode) []float64 {
		t.Helper()
		stack := testStack(ImplMPICH, ABINative, CkptNone, 4)
		stack.Progress = mode
		job, err := Launch(stack, "test.shrink.ring")
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 4)
		for r := range out {
			out[r] = job.Program(r).(*shrinkRing).Digest
		}
		return out
	}
	gor := run(ProgressGoroutine)
	ev := run(ProgressEvent)
	for r := range gor {
		if gor[r] != ev[r] {
			t.Errorf("rank %d digest: goroutine %v vs event %v", r, gor[r], ev[r])
		}
	}
}

// TestEventModeCancelDeterministicError is the event-loop companion of
// TestCancelReturnsErrCancelled: cancelling a job whose fibers sit
// parked in the scheduler must collapse to the ErrCancelled sentinel
// every time — never a raw closed-mailbox error from whichever fiber the
// token reached first. Repeated because the original bug class is a
// race between teardown and rank errors.
func TestEventModeCancelDeterministicError(t *testing.T) {
	for i := 0; i < 5; i++ {
		stack := testStack(ImplMPICH, ABINative, CkptNone, 4)
		stack.Progress = ProgressEvent
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

// TestShrinkRecoveryDigestEventMode is the fault-path acceptance test:
// the full kill → revoke → shrink → agree → continue cycle under the
// event scheduler, with survivor digests equal to (a) a survivors-only
// reference run and (b) the same recovery under the goroutine engine.
func TestShrinkRecoveryDigestEventMode(t *testing.T) {
	const n, victim = 4, 2
	recoverDigests := func(mode ProgressMode) []float64 {
		t.Helper()
		stack := shrinkStack(ImplMPICH, ABINative, n)
		stack.Progress = mode
		inj := nonFatalRankCrash(t, victim, 3, stack.Net)
		res, err := RunWithShrinkRecovery(stack, "test.shrink.ring", inj,
			ShrinkPolicy{LegTimeout: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Shrinks != 1 {
			t.Fatalf("%s mode: completed=%v shrinks=%d", mode, res.Completed, res.Shrinks)
		}
		var out []float64
		for r := 0; r < n; r++ {
			if r == victim {
				continue
			}
			out = append(out, res.Job.Program(r).(*shrinkRing).Digest)
		}
		return out
	}
	want := refDigest(t, ImplMPICH, ABINative, n-1)
	gor := recoverDigests(ProgressGoroutine)
	ev := recoverDigests(ProgressEvent)
	for i := range gor {
		if math.Abs(ev[i]-want) > 0 {
			t.Errorf("event-mode survivor %d digest %v != %d-rank reference %v", i, ev[i], n-1, want)
		}
		if gor[i] != ev[i] {
			t.Errorf("survivor %d digest: goroutine %v vs event %v", i, gor[i], ev[i])
		}
	}
}

// TestEventModeCheckpointRestart: the full MANA checkpoint path — safe-
// point vote, quiesce barriers, counter-exchange drain of the in-flight
// ring messages, image write, fresh-world restart — composes with the
// event scheduler on both legs. (Plain DMTCP cannot capture mid-flight
// messages in any mode; the drain is MANA's job, which is exactly why it
// is the interesting layer to run over the event loop.)
func TestEventModeCheckpointRestart(t *testing.T) {
	stack := testStack(ImplMPICH, ABIMukautuva, CkptMANA, 3)
	stack.Progress = ProgressEvent
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
