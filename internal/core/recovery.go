package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/abi"
	"repro/internal/dmtcp"
	"repro/internal/faults"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// RecoveryMode selects how RunWithRecovery survives a crash — the three
// legs of fault-tolerant MPI, compared side by side in docs/recovery.md.
type RecoveryMode string

// Recovery modes.
const (
	// RecoveryRestart (the default) checkpoints periodically and, when a
	// crash aborts the job, resumes the latest complete image in a new leg
	// — under RecoveryPolicy.RestartStack when set, which may name another
	// MPI implementation wherever the image's ABI and checkpointer legs
	// allow it (the paper's headline, under real failure). The cost is the
	// lost-work window since that image.
	RecoveryRestart RecoveryMode = ""
	// RecoveryShrink is ULFM in-place recovery: the crash does not abort
	// the job; survivors' pending operations complete with proc-failed,
	// they revoke and shrink the world communicator, rebind, and recompute
	// from scratch on the smaller world. No image, no relaunch; the cost is
	// the recomputation.
	RecoveryShrink RecoveryMode = "shrink"
	// RecoveryReplicate runs every logical rank as a primary + warm-shadow
	// pair (FTHP-MPI style, arXiv:2504.09989) on a disjoint set of nodes:
	// every message is sent and received twice, and a dead primary's
	// shadow is promoted in place — no rollback, no shrink, same
	// membership, and no survivor observes an error. The cost is the
	// steady-state duplicate traffic.
	RecoveryReplicate RecoveryMode = "replicate"
)

// Check reports why mode cannot recover crashes of the given kinds on a
// stack that loads ckpt, with or without a restart pairing and a periodic
// checkpoint interval; nil means it can. It is the one rule both
// RunWithRecovery and scenario.Spec.Validate apply. Restart resumes images,
// so it needs a checkpointer once a crash or a restart pairing is named (a
// leg with neither never checkpoints). The in-place modes are the
// checkpoint-free path: a checkpointer, a restart pairing or an interval
// would advertise a leg that never executes, and they survive rank crashes
// only (a node crash takes a shrink below the apps' minimum membership, and
// could take both replicas of a pair in one blow).
func (m RecoveryMode) Check(kinds []faults.Kind, ckpt CkptMode, restartPairing bool, interval uint64) error {
	switch m {
	case RecoveryRestart:
		if ckpt == CkptNone && (restartPairing || crashes(kinds)) {
			return fmt.Errorf("core: restart recovery resumes periodic images; it requires a checkpointing package in the stack")
		}
		return nil
	case RecoveryShrink, RecoveryReplicate:
	default:
		return fmt.Errorf("core: unknown recovery mode %q", m)
	}
	for _, k := range kinds {
		if k == faults.KindNodeCrash {
			return fmt.Errorf("core: %s recovery survives rank crashes, not %s", m, k)
		}
	}
	switch {
	case ckpt != CkptNone:
		return fmt.Errorf("core: %s recovery is checkpoint-free; drop the %s checkpointer", m, ckpt)
	case restartPairing:
		return fmt.Errorf("core: %s recovery never restarts; drop the restart pairing", m)
	case interval != 0:
		return fmt.Errorf("core: %s recovery takes no checkpoint interval", m)
	}
	return nil
}

// RecoveryPolicy configures RunWithRecovery.
type RecoveryPolicy struct {
	// Mode selects restart (the zero value), shrink or replicate.
	Mode RecoveryMode
	// ImageRoot names where the job's image sets land in its image store
	// (WithImages; a directory by default) and restart legs read them
	// from: the periodic sets once a crash is armed, or the one set of a
	// Figure 6 pair (restart only; required there).
	ImageRoot string
	// Interval is the periodic checkpoint interval in program steps
	// (restart with a crash armed only; default 1: an image behind every
	// safe point).
	Interval uint64
	// RestartStack, when non-nil, is the stack restart legs run under (a
	// different MPI implementation when the image's ABI/checkpointer legs
	// allow it); its cluster shape must match the launch stack's. Nil
	// restarts under the launch stack. Restart only; with no crash armed
	// it makes the run a Figure 6 pair.
	RestartStack *Stack
	// MaxRecoveries bounds the retry budget — restart legs, or in-place
	// shrinks per rank; a failure past it is returned instead of recovered
	// (default 3). Promotion is free and unbounded.
	MaxRecoveries int
	// LegTimeout cancels any single leg exceeding it; the resulting
	// ErrCancelled is not recoverable (0 = no bound).
	LegTimeout time.Duration
	// LegDone, when set, is called with every leg that completes, before
	// the driver releases it or returns it as RecoveryResult.Job. It is the
	// only moment a Figure 6 launch leg's programs can be read: the driver
	// releases that leg before the restart leg, which decodes into its
	// storage.
	LegDone func(leg *Job)
}

// resolve applies the policy's defaults and refuses up front, before any
// fault fires, what its mode cannot run. It returns the stack restart legs
// run under and whether inj arms a crash.
func (pol *RecoveryPolicy) resolve(stack Stack, inj *faults.Injector) (Stack, bool, error) {
	var kinds []faults.Kind
	if inj != nil {
		for _, f := range inj.Faults() {
			kinds = append(kinds, f.Kind)
		}
	}
	crash := crashes(kinds)
	if err := pol.Mode.Check(kinds, stack.Ckpt, pol.RestartStack != nil, pol.Interval); err != nil {
		return stack, crash, err
	}
	if pol.MaxRecoveries <= 0 {
		pol.MaxRecoveries = 3
	}
	if pol.Mode != RecoveryRestart || !crash && pol.RestartStack == nil {
		return stack, crash, nil
	}
	if pol.ImageRoot == "" {
		return stack, crash, fmt.Errorf("core: restart recovery requires an image root for its checkpoints")
	}
	if pol.Interval == 0 {
		pol.Interval = 1
	}
	rstack := stack
	if pol.RestartStack != nil {
		rstack = *pol.RestartStack
		if err := rstack.Validate(); err != nil {
			return stack, crash, err
		}
		if rstack.Net.Size() != stack.Net.Size() {
			return stack, crash, fmt.Errorf("core: recovery stack has %d ranks, launch stack %d",
				rstack.Net.Size(), stack.Net.Size())
		}
	}
	if err := RestartCompat(string(stack.Impl), string(stack.ABI), string(stack.Ckpt),
		stack.ABI != ABINative, rstack); err != nil {
		return stack, crash, fmt.Errorf("core: invalid recovery pairing: %w", err)
	}
	return rstack, crash, nil
}

// crashes reports whether faults of these kinds kill ranks: every kind
// but a NIC degradation, which the job survives unaided.
func crashes(kinds []faults.Kind) bool {
	return slices.ContainsFunc(kinds, func(k faults.Kind) bool { return k != faults.KindNICDegrade })
}

// RecoveryEvent records one failure and what the mode did about it. All
// times are virtual, so recovery metrics are as deterministic as the run.
type RecoveryEvent struct {
	// Failure is the detected rank failure.
	Failure *RankFailure
	// Detected is the virtual detection time (Failure.Detected).
	Detected simnet.Time

	// Restart: ImageSet/ImageStep/ImageVirt identify the complete image
	// the next leg resumed from; ImageSet is empty when no complete image
	// existed yet and the leg relaunched from scratch (and on a failure
	// past the budget, which starts no leg). LostVirt is the recomputation
	// window — virtual time between the image and the detection point, the
	// work the failure threw away — clamped at zero: per-rank clock skew
	// can put the trigger rank's detection a hair before the image
	// writer's checkpoint clock.
	ImageSet  string
	ImageStep uint64
	ImageVirt simnet.Time
	LostVirt  time.Duration

	// Shrink: Survivors is the shrunken communicator's size and Recovered
	// its rank 0's virtual clock when the survivors finished rebinding and
	// re-setup (zero when the job ended before the shrink did). Clocks
	// never rewind, so completion already includes the recomputation.
	Survivors int
	Recovered simnet.Time

	// Replicate: Promoted lists the logical ranks whose shadows took over.
	Promoted []int
}

// RecoveryResult summarizes a run driven by RunWithRecovery.
type RecoveryResult struct {
	// Job is the final leg (completed, or failed when an error is
	// returned alongside): the one leg of a straight run, a Figure 6
	// pair's restart leg, or the last recovery leg. Its programs and
	// clocks carry the run's measurements — through
	// LogicalClock/LogicalProgram on a replicated job. Every earlier leg
	// is released (a completed one after pol.LegDone), so when a restart
	// itself fails Job's programs are nil.
	Job *Job
	// Completed reports whether the program ran to completion (both legs,
	// for a Figure 6 pair).
	Completed bool
	// Recoveries counts what the mode did: restart legs launched after a
	// crash, shrinks completed, or logical ranks promoted. A straight run
	// and a Figure 6 pair recover nothing.
	Recoveries int
	// Events records each detected failure, in order.
	Events []RecoveryEvent
}

// RunWithRecovery is the one driver for every run the scenario matrix
// makes, and the fault-tolerance driver the paper's title promises, for
// all three recovery modes. It launches prog under stack with the fault
// injector armed (nil runs fault-free) and waits. The run's shape follows
// from its inputs:
//
//   - A crash armed (a rank or node crash in inj): under restart, the job
//     checkpoints periodically under pol.ImageRoot of its image store
//     (WithImages in opts; directories by default), and each detected
//     RankFailure relaunches a leg from the latest complete image (or from
//     scratch when the failure beat the first one); every leg counts
//     against the budget. Under shrink and replicate the one leg absorbs
//     its failures in place and the driver collects their events.
//   - No crash armed and no pol.RestartStack: one straight leg, under NIC
//     degradations when inj holds any. A restart-mode straight leg takes
//     no checkpoint, so its stack needs no checkpointer.
//   - No crash armed and a pol.RestartStack (restart mode): the paper's
//     Figure 6 pair. The launch leg checkpoints once, at its first safe
//     point, into the set pol.ImageRoot and runs on to completion; it is
//     released, and that set restarts under the restart stack and runs to
//     completion too.
//
// pol.LegDone hears of every leg that completes. Configurations the mode
// cannot run — invalid restart pairings, a checkpointer under an in-place
// mode (RecoveryMode.Check) — are refused up front.
//
// The injector is shared across legs, so a fault consumed on one leg
// does not refire when the recovered job replays its trigger step. Under
// replicate it is armed against the LOGICAL cluster shape (stack.Net), so
// resolved victims are always primaries.
func RunWithRecovery(stack Stack, prog string, inj *faults.Injector, pol RecoveryPolicy, opts ...LaunchOption) (*RecoveryResult, error) {
	rstack, crash, err := pol.resolve(stack, inj)
	if err != nil {
		return nil, err
	}
	restart := pol.Mode == RecoveryRestart
	pair := restart && !crash && pol.RestartStack != nil
	images := collectOpts(opts).images
	legOpts := append(append([]LaunchOption(nil), opts...), WithFaults(inj), withRecovery(pol))
	switch {
	case restart && crash:
		legOpts = append(legOpts, WithPeriodicCheckpoint(pol.ImageRoot, pol.Interval))
	case pair:
		legOpts = append(legOpts, WithHold()) // Restart ignores it
	}
	job, err := Launch(stack, prog, legOpts...)
	if err != nil {
		return nil, err
	}
	var ckpt <-chan error
	if pair {
		// Registered before any rank runs, the request lands at the first
		// safe point.
		ckpt = job.CheckpointAsync(pol.ImageRoot, false)
		job.Start()
	}
	res := &RecoveryResult{}
	for {
		err := WaitTimeout(job, pol.LegTimeout)
		if err == nil && ckpt != nil {
			if err = <-ckpt; err != nil {
				err = fmt.Errorf("core: checkpoint: %w", err)
			}
		}
		res.Job = job
		events := job.recoveryEvents()
		res.Events = append(res.Events, events...)
		if !restart {
			for _, ev := range events {
				if ev.Survivors > 0 {
					res.Recoveries++
				}
				res.Recoveries += len(ev.Promoted)
			}
		}
		if err == nil {
			if pol.LegDone != nil {
				pol.LegDone(job)
			}
			if ckpt == nil {
				res.Completed = true
				return res, nil
			}
			// The pair's launch leg is measured: the restart leg decodes
			// into its storage.
			ckpt = nil
			job.Release()
			if job, err = Restart(pol.ImageRoot, rstack, legOpts...); err != nil {
				return res, fmt.Errorf("core: restart: %w", err)
			}
			continue
		}
		var rf *RankFailure
		if !restart || !errors.As(err, &rf) {
			// Not a detected crash (program bug, cancellation), or one the
			// in-place mode could not absorb: recovery cannot help.
			return res, err
		}
		// A restart-mode leg records exactly the failure Wait returned.
		ev := &res.Events[len(res.Events)-1]
		if res.Recoveries >= pol.MaxRecoveries {
			return res, fmt.Errorf("core: recovery budget exhausted after %d restarts: %w", res.Recoveries, rf)
		}
		// The crashed leg's programs are read no more: the next leg reuses
		// their storage.
		job.Release()
		set, meta, ok := dmtcp.LatestComplete(images, pol.ImageRoot, stack.Net.Size())
		if ok {
			ev.ImageSet = set
			ev.ImageStep = meta.Step
			if img, ierr := dmtcp.ReadRank(images, set, 0); ierr == nil {
				ev.ImageVirt = simnet.Time(img.Clock)
			}
			if ev.LostVirt = ev.Detected.Sub(ev.ImageVirt); ev.LostVirt < 0 {
				ev.LostVirt = 0
			}
			// Caller options like WithTrace follow the job onto every leg
			// (Restart ignores the launch-only ones).
			job, err = Restart(set, rstack, legOpts...)
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
		if err != nil {
			return res, fmt.Errorf("core: recovery restart: %w", err)
		}
		res.Recoveries++
	}
}

// withRecovery puts a leg in pol's mode: under shrink and replicate a
// crash kills its victims without aborting the job, and replicate builds
// the world with a shadow behind every logical rank. Only RunWithRecovery
// applies it, after pol.resolve.
func withRecovery(pol RecoveryPolicy) LaunchOption {
	return func(o *launchOpts) { o.mode, o.budget = pol.Mode, pol.MaxRecoveries }
}

// recordFailure registers an injected fault's kill set: the failure joins
// the job's event list and the victims' endpoints die. Under restart mode
// the world then closes, so survivors unblock (and fail) instead of
// waiting forever on the dead — and a job that already failed, for a
// genuine reason or an earlier fault, keeps that error: this fault arrived
// on a corpse. Under the in-place modes the fabric broadcasts the failure
// notice instead and the job keeps running: shrink survivors recover in
// place, replicate promotes the victims' shadows. rank is the trigger
// rank, whose fiber records the failure.
func (j *Job) recordFailure(rank int, f *faults.Fault, step uint64, now simnet.Time) {
	fatal := j.mode == RecoveryRestart
	j.mu.Lock()
	if !fatal || (len(j.events) == 0 && len(j.errs) == 0) {
		rf := newRankFailure(f, step, now)
		ev := RecoveryEvent{Failure: rf, Detected: rf.Detected}
		if j.mode == RecoveryReplicate {
			for _, r := range rf.Ranks {
				// A dead shadow needs no promotion: its primary covers.
				if _, shadow := j.w.Replicas(r); r < j.w.LogicalSize() && j.w.Alive(shadow) {
					ev.Promoted = append(ev.Promoted, r)
				}
			}
		}
		j.events = append(j.events, ev)
		j.traceFailure("failure", rf)
	}
	j.mu.Unlock()
	j.w.Kill(f.Ranks...)
	if fatal {
		j.w.Endpoint(rank).CloseWorld()
	} else {
		j.w.NotifyFailure(f.Ranks...)
	}
}

// recoveryEvents returns the job's recorded failures (stable after Wait).
func (j *Job) recoveryEvents() []RecoveryEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]RecoveryEvent(nil), j.events...)
}

// ulfmRecoverable reports whether a step error is the kind ULFM
// recovery absorbs: the failure itself (proc-failed) or its propagated
// aftermath (revoked). Anything else — a program bug, a cancelled
// world — fails the job as before.
func ulfmRecoverable(err error) bool {
	switch abi.ClassOf(err) {
	case abi.ErrProcFailed, abi.ErrRevoked:
		return true
	}
	return false
}

// shrinkRecover performs one survivor's in-place recovery: revoke the
// (old) world so every straggler's traffic errors out instead of
// hanging, shrink it to the survivors, agree on the shrunken
// communicator (synchronizing the survivors and acknowledging the
// failure), rebind the environment, and rebuild the program from
// scratch on the smaller world, in a reset instance. Returns that
// instance.
func (j *Job) shrinkRecover(rank int, env *abi.Env) (Program, error) {
	tr := j.w.Endpoint(rank).Trace()
	if tr != nil {
		tr.Begin(trace.CatCkpt, "shrink-recover", j.w.Endpoint(rank).Clock().Now())
		defer func() {
			tr.End(trace.CatCkpt, "shrink-recover", j.w.Endpoint(rank).Clock().Now())
		}()
	}
	// Unilateral and idempotent: whichever survivor arrives first
	// poisons the communicator for all of them, which is what unblocks
	// survivors whose own operations were still succeeding.
	_ = env.T.CommRevoke(env.CommWorld)
	nc, err := env.T.CommShrink(env.CommWorld)
	if err != nil {
		return nil, fmt.Errorf("core: shrink: %w", err)
	}
	if _, err := env.T.CommAgree(nc, 1); err != nil {
		return nil, fmt.Errorf("core: post-shrink agreement: %w", err)
	}
	if err := env.Rebind(nc); err != nil {
		return nil, fmt.Errorf("core: rebinding survivors' world: %w", err)
	}
	// The old instance is done with: it goes back to the free list, and
	// the rank's slot never names an instance the list also holds.
	recyclePrograms(j.name, j.progs[rank:rank+1])
	if takePrograms(j.name, j.progs[rank:rank+1]) == 0 {
		j.progs[rank] = j.factory()
	}
	prog := j.progs[rank]
	if j.configure != nil {
		j.configure(rank, prog)
	}
	if err := prog.Setup(env); err != nil {
		return nil, fmt.Errorf("core: survivor setup: %w", err)
	}
	if env.Rank() == 0 {
		// The shrink answers the oldest failure not yet recovered from.
		j.mu.Lock()
		for i := range j.events {
			if j.events[i].Survivors == 0 {
				j.events[i].Survivors, j.events[i].Recovered = env.Size(), env.Now()
				break
			}
		}
		j.mu.Unlock()
	}
	return prog, nil
}

// LogicalClock returns logical rank r's completion clock: the primary's
// when it survived, the promoted shadow's otherwise (a dead primary's
// clock froze at its death and would under-report the run). On an
// unreplicated world it is Clock(r).
func (j *Job) LogicalClock(r int) simnet.Time {
	if j.w.Replicated() && !j.w.Alive(r) {
		_, shadow := j.w.Replicas(r)
		return j.Clock(shadow)
	}
	return j.Clock(r)
}

// LogicalProgram returns logical rank r's completed program instance: the
// primary's, or the promoted shadow's when the primary died (stable after
// Wait). On an unreplicated world it is Program(r).
func (j *Job) LogicalProgram(r int) Program {
	if j.w.Replicated() && !j.w.Alive(r) {
		_, shadow := j.w.Replicas(r)
		return j.progs[shadow]
	}
	return j.progs[r]
}

// WaitTimeout joins the job, cancelling it (and reaping its rank
// goroutines) when it exceeds d; d <= 0 waits unboundedly. A timed-out
// job reports a stable error wrapping ErrCancelled, so every driver's
// timeout cell carries identical text whichever rank tripped over the
// closing fabric first. An error that is NOT the cancellation resolved
// right at the bound and is surfaced as itself (a completed run is not a
// timeout). The recovery driver waits on every leg with it.
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
