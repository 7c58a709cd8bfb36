// Package repro is a Go reproduction of "The Case for ABI Interoperability
// in a Fault Tolerant MPI" (Xu, Nansamba, Skjellum, Cooperman; IPPS 2025):
// a standard-ABI MPI ecosystem with two simulated MPI implementations
// (MPICH-flavored and Open-MPI-flavored, each with its own native ABI), the
// Mukautuva compatibility shim, and the MANA transparent checkpointing
// package — the paper's "three-legged stool".
//
// The public API re-exports the composition layer: pick a Stack (one MPI
// implementation, one ABI binding mode, one checkpointing package), Launch
// a registered Program over it, Checkpoint it mid-run, and Restart the
// image — under a different MPI implementation when the stack went through
// the standard ABI:
//
//	stack := repro.DefaultStack(repro.ImplOpenMPI, repro.ABIMukautuva, repro.CkptMANA)
//	job, _ := repro.Launch(stack, "osu.alltoall.ckptwindow")
//	job.Checkpoint("images/", false)
//	job.Wait()
//	restarted, _ := repro.Restart("images/", repro.DefaultStack(
//		repro.ImplMPICH, repro.ABIMukautuva, repro.CkptMANA))
//	restarted.Wait()
//
// Applications are SPMD Programs written against the standard ABI
// function table (see the abi types re-exported here); registered
// workloads include the OSU micro-benchmark kernels ("osu.alltoall",
// "osu.bcast", "osu.allreduce", "osu.alltoall.ckptwindow") and the
// Figure 5 applications ("app.comd", "app.wave").
package repro

import (
	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mana"
	"repro/internal/scenario"
	"repro/internal/trace"

	// Register the built-in workloads.
	_ "repro/internal/apps/comd"
	_ "repro/internal/apps/wavempi"
	_ "repro/internal/osu"
)

// Stack composition (see internal/core).
type (
	// Stack names one choice for each leg of the three-legged stool.
	Stack = core.Stack
	// Impl selects the MPI implementation.
	Impl = core.Impl
	// ABIMode selects the binding: native or standard-ABI via Mukautuva.
	ABIMode = core.ABIMode
	// CkptMode selects the checkpointing package.
	CkptMode = core.CkptMode
	// Job is a running or finished launch.
	Job = core.Job
	// Program is an SPMD application; see core.Program for the contract.
	Program = core.Program
	// LaunchOption tweaks a launch.
	LaunchOption = core.LaunchOption
)

// Stack building blocks.
const (
	ImplMPICH    = core.ImplMPICH
	ImplOpenMPI  = core.ImplOpenMPI
	ImplStdABI   = core.ImplStdABI
	ABINative    = core.ABINative
	ABIMukautuva = core.ABIMukautuva
	ABIWi4MPI    = core.ABIWi4MPI
	CkptNone     = core.CkptNone
	CkptMANA     = core.CkptMANA
	CkptDMTCP    = core.CkptDMTCP
)

// Application-facing MPI types (the standard ABI).
type (
	// Env is a rank's bound MPI environment.
	Env = abi.Env
	// Handle is an opaque MPI object handle.
	Handle = abi.Handle
	// Status is the standard receive status record.
	Status = abi.Status
)

// Kernel feature levels for the MANA FSGSBASE cost model.
const (
	KernelPre5_9  = mana.KernelPre5_9
	Kernel5_9Plus = mana.Kernel5_9Plus
)

// DefaultStack returns the paper's testbed configuration (4 nodes x 12
// ranks over 10 GbE, pre-5.9 kernel) for the given legs.
func DefaultStack(impl Impl, abiMode ABIMode, ckpt CkptMode) Stack {
	return core.DefaultStack(impl, abiMode, ckpt)
}

// Launch runs a registered program under a stack. See core.Launch.
func Launch(stack Stack, program string, opts ...LaunchOption) (*Job, error) {
	return core.Launch(stack, program, opts...)
}

// WithConfigure sets launch parameters on each rank's program instance.
func WithConfigure(fn func(rank int, p Program)) LaunchOption {
	return core.WithConfigure(fn)
}

// WithHold builds the job without starting its ranks; release with
// Job.Start. Register a checkpoint with Job.CheckpointAsync before Start
// to pin it deterministically to the first safe point.
//
//mpivet:allow deadexport -- bench/stack_sweep.go launches its timed job held
func WithHold() LaunchOption {
	return core.WithHold()
}

// WithTrace records per-rank virtual-time event traces into sink,
// exportable as Perfetto-loadable Chrome trace-event JSON via
// sink.WriteChromeFile. A nil sink is the disabled state and costs one
// pointer compare per emission site. See docs/observability.md.
//
//mpivet:allow deadexport -- bench/probes.go times a traced launch against an untraced one
func WithTrace(sink *trace.Sink) LaunchOption {
	return core.WithTrace(sink)
}

// Restart resumes a checkpoint image set under a new stack. Images taken
// through the standard ABI may restart under a different MPI
// implementation; native-ABI images may not. An unset stack.Net.Seed
// resumes the image's recorded jitter stream. See core.Restart.
func Restart(dir string, stack Stack, opts ...LaunchOption) (*Job, error) {
	return core.Restart(dir, stack, opts...)
}

// Automated recovery (see internal/faults and core.RunWithRecovery):
// survive the failures a fault injector arms in one of three modes — the
// paper's crash-detect-restart loop (cross-implementation where the
// stack's ABI and checkpointer legs allow it), ULFM shrink, or
// warm-shadow replication.
type (
	// RankFailure is the typed failure Job.Wait returns when an
	// injected fault kills ranks.
	RankFailure = core.RankFailure
	// RecoveryMode selects restart (""), "shrink" or "replicate".
	RecoveryMode = core.RecoveryMode
	// RecoveryPolicy configures RunWithRecovery.
	RecoveryPolicy = core.RecoveryPolicy
	// RecoveryResult summarizes a recovered run; RecoveryEvent is one
	// failure in it and what the mode did about it.
	RecoveryResult = core.RecoveryResult
	RecoveryEvent  = core.RecoveryEvent
)

// ErrCancelled is the stable error Wait returns for a cancelled job.
var ErrCancelled = core.ErrCancelled

// RunWithRecovery launches a program under fault injection and survives
// its crashes in RecoveryPolicy.Mode: restart from the latest periodic
// image (under the policy's restart stack when set — a different MPI
// implementation where the legs allow), bounded by the retry budget;
// "shrink" in place by ULFM revoke/shrink/recompute; or "replicate" by
// promoting a dead primary's warm shadow (a nil injector measures the
// steady-state duplication overhead). The in-place modes take
// checkpoint-free stacks only.
//
//mpivet:allow deadexport -- test-facing: the public recovery driver TestPublicShrinkRecovery drives, as REPRODUCING.md documents
func RunWithRecovery(stack Stack, program string, inj *faults.Injector, pol RecoveryPolicy, opts ...LaunchOption) (*RecoveryResult, error) {
	return core.RunWithRecovery(stack, program, inj, pol, opts...)
}

// RegisterProgram installs an application under a stable name so it can be
// launched and its checkpoints decoded.
func RegisterProgram(name string, factory func() Program) {
	core.RegisterProgram(name, factory)
}

// ScenarioMatrix enumerates a matrix of scenarios (see internal/scenario).
type ScenarioMatrix = scenario.MatrixSpec

// DefaultScenarioMatrix is the paper's full claim surface: both Figure 5
// applications over every implementation, binding mode, checkpointing
// package, and valid restart pairing.
func DefaultScenarioMatrix() ScenarioMatrix { return scenario.DefaultMatrix() }
