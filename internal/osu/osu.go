// Package osu reproduces the OSU Micro-Benchmark kernels the paper's
// evaluation uses (OSU Micro-Benchmarks 7.5): collective latency sweeps for
// MPI_Alltoall, MPI_Bcast and MPI_Allreduce over message sizes 2^0..2^18,
// plus the paper's modified alltoall with a sleep window after warm-up
// (Section 5.3 / Figure 6), which provides the checkpoint opportunity.
//
// Each benchmark is a core.Program whose exported fields are its
// checkpointable state; the Figure 6 experiment checkpoints the benchmark
// mid-run and restarts it under another MPI implementation, so the sweep
// position, accumulated timings and phase all live in serialized state.
//
// In the README's layer diagram the OSU kernels are the applications
// row: programs compiled once against internal/abi like any user code.
package osu

import (
	"fmt"
	"time"

	"repro/internal/abi"
	"repro/internal/core"
)

// Collective names the benchmarked operation.
type Collective string

// Benchmarked collectives.
const (
	Alltoall  Collective = "alltoall"
	Bcast     Collective = "bcast"
	Allreduce Collective = "allreduce"
)

// DefaultSizes is the paper's x-axis: 1 B to 256 KiB in powers of two.
func DefaultSizes() []int {
	var sizes []int
	for sz := 1; sz <= 1<<18; sz <<= 1 {
		sizes = append(sizes, sz)
	}
	return sizes
}

// phase values for the benchmark state machine.
const (
	phaseWarmup = iota
	phaseSleep
	phaseMeasure
)

// LatencyBench sweeps one collective over message sizes, measuring the
// virtual-time latency per call, OSU style: warm-up iterations are
// discarded, measured iterations are averaged per size.
type LatencyBench struct {
	Op     Collective
	Sizes  []int
	Warmup int
	Iters  int
	// ItersLarge overrides Iters for sizes of LargeSize and up, mirroring
	// OSU's reduced large-message iteration counts (0 = same as Iters).
	ItersLarge int

	// SleepVirtual inserts the paper's post-warm-up sleep (10 s in the
	// paper) as virtual time; SleepReal holds the step for that long in
	// wall-clock time so an external checkpoint request can land in the
	// window, like the paper's operator did.
	SleepVirtual time.Duration
	SleepReal    time.Duration

	// State machine (exported: checkpointed).
	Phase   int
	SizeIdx int
	Iter    int
	AccumNs int64 // virtual ns accumulated over measured iterations

	// MeanMicros[i] is the mean latency in microseconds for Sizes[i].
	MeanMicros []float64

	// Restarted is flipped by the restart driver (diagnostics only).
	Restarted bool

	// send and recv are run's message buffers, kept across calls and
	// zeroed before each. Unexported, so checkpoint images (gob) never
	// carry them; a restarted bench grows them again on its first call.
	send, recv []byte
}

// LargeSize is the boundary above which ItersLarge applies.
const LargeSize = 32 * 1024

// NewLatencyBench returns a bench with the paper's sweep parameters.
func NewLatencyBench(op Collective) *LatencyBench {
	return &LatencyBench{
		Op:         op,
		Sizes:      DefaultSizes(),
		Warmup:     5,
		Iters:      20,
		ItersLarge: 4,
	}
}

// itersNow is the measured-iteration target for the current size.
func (b *LatencyBench) itersNow() int {
	if b.ItersLarge > 0 && b.SizeIdx < len(b.Sizes) && b.Sizes[b.SizeIdx] >= LargeSize {
		return b.ItersLarge
	}
	return b.Iters
}

// Setup allocates nothing: run grows its message buffers on demand, in
// fields the checkpoint image does not carry.
func (b *LatencyBench) Setup(env *abi.Env) error {
	if len(b.Sizes) == 0 {
		b.Sizes = DefaultSizes()
	}
	if b.Iters == 0 {
		b.Iters = 20
	}
	return nil
}

// run performs one collective call of the current size.
func (b *LatencyBench) run(env *abi.Env) error {
	sz := b.Sizes[b.SizeIdx]
	n := env.Size()
	switch b.Op {
	case Alltoall:
		send, recv := zeroed(&b.send, n*sz), zeroed(&b.recv, n*sz)
		return env.T.Alltoall(send, sz, env.TypeByte, recv, sz, env.TypeByte, env.CommWorld)
	case Bcast:
		return env.T.Bcast(zeroed(&b.send, sz), sz, env.TypeByte, 0, env.CommWorld)
	case Allreduce:
		send, recv := zeroed(&b.send, sz), zeroed(&b.recv, sz)
		return env.T.Allreduce(send, recv, sz, env.TypeByte, env.OpSum, env.CommWorld)
	default:
		return fmt.Errorf("osu: unknown collective %q", b.Op)
	}
}

// zeroed returns *buf resized to n zero bytes — what a fresh make gave
// every call before the buffers were kept — growing it only when the
// sweep reaches a larger size.
func zeroed(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// Step advances the warm-up/sleep/measure state machine by one collective
// call (or the sleep window).
func (b *LatencyBench) Step(env *abi.Env) (bool, error) {
	switch b.Phase {
	case phaseWarmup:
		if err := b.run(env); err != nil {
			return false, err
		}
		// Lockstep between iterations, as osu_latency does with its
		// barrier: prevents root-ahead pipelining from hiding latency.
		if err := env.T.Barrier(env.CommWorld); err != nil {
			return false, err
		}
		b.Iter++
		if b.Iter >= b.Warmup {
			b.Iter = 0
			if b.SleepVirtual > 0 || b.SleepReal > 0 {
				b.Phase = phaseSleep
			} else {
				b.Phase = phaseMeasure
			}
		}
		return false, nil
	case phaseSleep:
		// The paper's modified benchmark sleeps 10 s after warm-up; the
		// checkpoint is taken in this window.
		env.Compute(b.SleepVirtual)
		if b.SleepReal > 0 {
			time.Sleep(b.SleepReal) //mpivet:allow parksafe -- the paper's modified benchmark really sleeps here; opt-in via SleepReal (default 0)
		}
		b.Phase = phaseMeasure
		return false, nil
	case phaseMeasure:
		t0 := env.Now()
		if err := b.run(env); err != nil {
			return false, err
		}
		b.AccumNs += int64(env.Now() - t0)
		// Barrier outside the timed region (OSU protocol).
		if err := env.T.Barrier(env.CommWorld); err != nil {
			return false, err
		}
		b.Iter++
		if iters := b.itersNow(); b.Iter >= iters {
			// OSU reports the average latency across ranks: reduce the
			// per-rank accumulators.
			out := make([]byte, 8)
			if err := env.T.Allreduce(abi.Int64Bytes([]int64{b.AccumNs}), out, 1,
				env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
				return false, err
			}
			total := abi.Int64sOf(out)[0]
			mean := float64(total) / float64(env.Size()) / float64(iters) / 1e3
			b.MeanMicros = append(b.MeanMicros, mean)
			b.AccumNs = 0
			b.Iter = 0
			b.SizeIdx++
			if b.SizeIdx < len(b.Sizes) {
				return false, nil
			}
			return true, nil
		}
		return false, nil
	}
	return false, fmt.Errorf("osu: corrupt phase %d", b.Phase)
}

// Results pairs sizes with measured mean latencies; valid once done.
func (b *LatencyBench) Results() ([]int, []float64) {
	return b.Sizes[:len(b.MeanMicros)], b.MeanMicros
}

func init() {
	core.RegisterProgram("osu.alltoall", func() core.Program { return NewLatencyBench(Alltoall) })
	core.RegisterProgram("osu.bcast", func() core.Program { return NewLatencyBench(Bcast) })
	core.RegisterProgram("osu.allreduce", func() core.Program { return NewLatencyBench(Allreduce) })
	// The Section 5.3 variant: alltoall with the post-warm-up sleep window.
	core.RegisterProgram("osu.alltoall.ckptwindow", func() core.Program {
		b := NewLatencyBench(Alltoall)
		b.SleepVirtual = 10 * time.Second
		b.SleepReal = 150 * time.Millisecond
		return b
	})
}
