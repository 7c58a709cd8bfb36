package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/faults"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// RecoveryPolicy configures the automated fault-recovery driver.
type RecoveryPolicy struct {
	// ImageRoot is the directory the job's periodic checkpoints land in
	// and recovery restarts read from (required).
	ImageRoot string
	// Interval is the periodic checkpoint interval in program steps
	// (default 1: an image behind every safe point).
	Interval uint64
	// MaxRestarts bounds the retry budget; a failure past the budget is
	// returned instead of recovered (default 3).
	MaxRestarts int
	// RestartStack, when non-nil, is the stack recovery legs run under —
	// a different MPI implementation when the image's ABI/checkpointer
	// legs allow it (the paper's headline, now under real failure). Its
	// cluster shape must match the launch stack's. Nil restarts under
	// the launch stack.
	RestartStack *Stack
	// LegTimeout cancels any single leg (launch or restart) exceeding
	// it; the resulting ErrCancelled is not recoverable (0 = no bound).
	LegTimeout time.Duration
}

// RecoveryEvent records one detect-and-restart cycle. All times are
// virtual, so recovery metrics are as deterministic as the run itself.
type RecoveryEvent struct {
	// Failure is the detected rank failure that triggered the cycle.
	Failure *RankFailure
	// Detected is the virtual detection time (Failure.Detected).
	Detected simnet.Time
	// ImageDir/ImageStep/ImageVirt identify the complete image the leg
	// resumed from; ImageDir is empty when no complete image existed yet
	// and the leg relaunched from scratch.
	ImageDir  string
	ImageStep uint64
	ImageVirt simnet.Time
	// LostVirt is the recomputation window: virtual time between the
	// resumed image and the detection point — the work the failure threw
	// away, the quantity the recovery-overhead table sweeps against the
	// checkpoint interval. Clamped at zero: per-rank clock skew can put
	// the trigger rank's detection clock a hair before the image
	// writer's checkpoint clock.
	LostVirt time.Duration
}

// RecoveryResult summarizes a run driven by RunWithRecovery.
type RecoveryResult struct {
	// Job is the final leg (completed, or failed when an error is
	// returned alongside); its programs and clocks carry the run's
	// measurements.
	Job *Job
	// Completed reports whether the program ran to completion.
	Completed bool
	// Restarts is the number of recovery legs actually launched.
	Restarts int
	// Events records each detected failure, in order.
	Events []RecoveryEvent
}

// RunWithRecovery is the fault-tolerance driver the paper's title
// promises: it launches prog under stack with the fault injector armed
// and periodic checkpointing on, waits for completion or a detected
// RankFailure, and on failure restarts from the latest complete image —
// under pol.RestartStack when set, which may name a different MPI
// implementation wherever the stack's ABI and checkpointer legs permit
// (MANA through the standard ABI). Invalid pairings — plain DMTCP or a
// native binding across implementations — are refused up front, before
// any fault fires. A failure arriving before the first complete image
// relaunches from scratch; every leg counts against the retry budget.
//
// The injector is shared across legs, so a fault consumed on one leg
// does not refire when the recovered job replays its trigger step.
func RunWithRecovery(stack Stack, prog string, inj *faults.Injector, pol RecoveryPolicy, opts ...LaunchOption) (*RecoveryResult, error) {
	if pol.ImageRoot == "" {
		return nil, fmt.Errorf("core: recovery requires an image root for periodic checkpoints")
	}
	if pol.Interval == 0 {
		pol.Interval = 1
	}
	if pol.MaxRestarts == 0 {
		pol.MaxRestarts = 3
	}
	rstack := stack
	if pol.RestartStack != nil {
		rstack = *pol.RestartStack
		if err := rstack.Validate(); err != nil {
			return nil, err
		}
		if rstack.Net.Size() != stack.Net.Size() {
			return nil, fmt.Errorf("core: recovery stack has %d ranks, launch stack %d",
				rstack.Net.Size(), stack.Net.Size())
		}
	}
	if stack.Ckpt == CkptNone {
		return nil, fmt.Errorf("core: recovery requires a checkpointing package in the stack")
	}
	if err := restartCompatErr(string(stack.Impl), string(stack.ABI), string(stack.Ckpt),
		stack.ABI != ABINative, rstack); err != nil {
		return nil, fmt.Errorf("core: invalid recovery pairing: %w", err)
	}

	common := []LaunchOption{WithFaults(inj), WithPeriodicCheckpoint(pol.ImageRoot, pol.Interval)}
	legOpts := append(append([]LaunchOption(nil), opts...), common...)
	job, err := Launch(stack, prog, legOpts...)
	if err != nil {
		return nil, err
	}
	res := &RecoveryResult{Job: job}
	for {
		err := WaitTimeout(job, pol.LegTimeout)
		res.Job = job
		if err == nil {
			res.Completed = true
			return res, nil
		}
		var rf *RankFailure
		if !errors.As(err, &rf) {
			// Not a detected rank failure (program bug, cancellation):
			// recovery cannot help.
			return res, err
		}
		ev := RecoveryEvent{Failure: rf, Detected: rf.Detected}
		if res.Restarts >= pol.MaxRestarts {
			res.Events = append(res.Events, ev)
			return res, fmt.Errorf("core: recovery budget exhausted after %d restarts: %w", res.Restarts, rf)
		}
		dir, meta, ok := dmtcp.LatestComplete(pol.ImageRoot, stack.Net.Size())
		if ok {
			ev.ImageDir = dir
			ev.ImageStep = meta.Step
			if h, herr := dmtcp.ReadRankHeader(dir, 0); herr == nil {
				ev.ImageVirt = simnet.Time(h.Clock)
			}
			if ev.LostVirt = ev.Detected.Sub(ev.ImageVirt); ev.LostVirt < 0 {
				ev.LostVirt = 0
			}
			// legOpts, not common: caller options like WithTrace must
			// follow the job onto every leg (Restart ignores the
			// launch-only ones).
			job, err = Restart(dir, rstack, legOpts...)
		} else {
			// The failure beat the first complete checkpoint: all work is
			// lost, but the job is not — relaunch from scratch under the
			// recovery stack (the application binds to either leg; launch
			// parameters reapply via opts).
			ev.LostVirt = ev.Detected.Sub(0)
			job, err = Launch(rstack, prog, legOpts...)
		}
		// The recovery decision belongs to the FAILED leg's timeline: the
		// new leg's clocks rewind to the image.
		res.Job.TraceLeg().Driver(trace.CatCkpt, "recovery-restart", ev.Detected,
			trace.Arg{Key: "imageStep", Val: trace.Itoa(int(ev.ImageStep))},
			trace.Arg{Key: "lostVirtNs", Val: trace.Itoa(int(ev.LostVirt))})
		res.Events = append(res.Events, ev)
		if err != nil {
			return res, fmt.Errorf("core: recovery restart: %w", err)
		}
		res.Restarts++
	}
}

// WaitTimeout joins the job, cancelling it (and reaping its rank
// goroutines) when it exceeds d; d <= 0 waits unboundedly. A timed-out
// job reports a stable error wrapping ErrCancelled, so every driver's
// timeout cell carries identical text whichever rank tripped over the
// closing fabric first. An error that is NOT the cancellation resolved
// right at the bound and is surfaced as itself (a completed run is not a
// timeout). Shared by the recovery driver and the scenario engine.
func WaitTimeout(job *Job, d time.Duration) error {
	if d <= 0 {
		return job.Wait()
	}
	done := make(chan error, 1)
	go func() { done <- job.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		job.Cancel()
		if err := <-done; !errors.Is(err, ErrCancelled) {
			return err
		}
		return fmt.Errorf("core: job timed out after %v: %w", d, ErrCancelled)
	}
}
