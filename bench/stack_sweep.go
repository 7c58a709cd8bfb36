package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/apps/wavempi"
	"repro/internal/osu"
)

// sweepStack is one of the eight stacks the sweep compares.
type sweepStack struct {
	name string
	impl repro.Impl
	abi  repro.ABIMode
	ckpt repro.CkptMode
}

// sweepStacks: the three native bindings, the paper's two headline
// stacks, the Wi4MPI and virtual-id variants, and the standard-ABI
// implementation behind the shim.
var sweepStacks = []sweepStack{
	{"mpich", repro.ImplMPICH, repro.ABINative, repro.CkptNone},
	{"openmpi", repro.ImplOpenMPI, repro.ABINative, repro.CkptNone},
	{"stdabi", repro.ImplStdABI, repro.ABINative, repro.CkptNone},
	{"mpich_muk_mana", repro.ImplMPICH, repro.ABIMukautuva, repro.CkptMANA},
	{"openmpi_muk_mana", repro.ImplOpenMPI, repro.ABIMukautuva, repro.CkptMANA},
	{"mpich_wi4mpi_mana", repro.ImplMPICH, repro.ABIWi4MPI, repro.CkptMANA},
	{"mpich_native_mana", repro.ImplMPICH, repro.ABINative, repro.CkptMANA},
	{"stdabi_muk", repro.ImplStdABI, repro.ABIMukautuva, repro.CkptNone},
}

func (s sweepStack) stack(seed int64) repro.Stack {
	st := repro.DefaultStack(s.impl, s.abi, s.ckpt)
	st.Net.Nodes, st.Net.RanksPerNode = 2, 4
	st.Net.JitterFrac = 0
	st.Net.Seed = seed
	return st
}

var sweepColls = []osu.Collective{osu.Alltoall, osu.Bcast, osu.Allreduce}

type stackSweep struct {
	cfg    config
	sizes  []int
	iters  int
	warmup int
}

func setupStackSweep(cfg config) (instance, error) {
	s := &stackSweep{cfg: cfg, iters: 40, warmup: 2}
	for sz := 1; sz <= 16<<10; sz <<= 2 { // 1 B .. 16 KiB, x4
		s.sizes = append(s.sizes, sz)
	}
	if cfg.smoke {
		s.sizes, s.iters, s.warmup = []int{1, 1024}, 2, 1
	}
	return s, nil
}

// slice is one full sweep: 3 collectives x 8 stacks = 24 launches. An
// operation is one rank's measured collective call.
func (s *stackSweep) slice(i int, tr *tracer) (sliceResult, error) {
	root := tr.begin("stack_sweep.slice", -1, i)
	defer tr.end(root)
	var out sliceResult
	for _, coll := range sweepColls {
		for _, st := range sweepStacks {
			stack := st.stack(s.cfg.seed + int64(i))
			launch := tr.begin("core.launch", root, i)
			job, err := repro.Launch(stack, "osu."+string(coll), repro.WithConfigure(func(rank int, p repro.Program) {
				b := p.(*osu.LatencyBench)
				b.Sizes, b.Iters, b.Warmup, b.ItersLarge = s.sizes, s.iters, s.warmup, 0
			}))
			tr.end(launch)
			if err != nil {
				return out, fmt.Errorf("stack_sweep: %s/%s: %w", st.name, coll, err)
			}
			wait := tr.begin("core.wait."+st.name, root, i)
			err = job.Wait()
			tr.end(wait)
			ops := stack.Net.Size() * len(s.sizes) * s.iters
			out.ops += ops
			sizes, means := job.Program(0).(*osu.LatencyBench).Results()
			if err != nil || len(sizes) != len(s.sizes) {
				out.failed += ops // a curve missing sizes fails its launch
				continue
			}
			// The curve's mean latency, weighted like the operations it
			// summarises, so virt per op is the sum over sizes / points.
			for _, m := range means {
				out.virtUS += m * float64(stack.Net.Size()*s.iters)
				tr.observe("virt."+st.name, m)
			}
		}
	}
	return out, nil
}

// verify launches app.wave once per stack and cross-restarts one Open
// MPI image under MPICH; every run must agree on the wave checksum.
func (s *stackSweep) verify() (sliceResult, error) {
	var out sliceResult
	var want float64
	check := func(job *repro.Job) {
		out.ops++
		got := job.Program(0).(*wavempi.Wave).Checked
		if want == 0 {
			want = got
		}
		if got == 0 || math.Abs(got-want) > 1e-9*math.Abs(want) {
			out.failed++
		}
	}
	small := configureWave(0.02, s.cfg.seed)
	for _, st := range sweepStacks {
		job, err := repro.Launch(st.stack(s.cfg.seed), "app.wave", small)
		if err != nil {
			return out, err
		}
		if err := job.Wait(); err != nil {
			return out, fmt.Errorf("stack_sweep: app.wave under %s: %w", st.name, err)
		}
		check(job)
	}
	dir, err := s.cfg.scratchDir("cross-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	from, to := sweepStacks[4], sweepStacks[3] // openmpi+muk+mana -> mpich+muk+mana
	if _, err := checkpointWave(from.stack(s.cfg.seed), small, dir); err != nil {
		return out, fmt.Errorf("stack_sweep: checkpoint: %w", err)
	}
	restarted, err := repro.Restart(dir, to.stack(s.cfg.seed))
	if err != nil {
		return out, err
	}
	if err := restarted.Wait(); err != nil {
		return out, fmt.Errorf("stack_sweep: cross-restart: %w", err)
	}
	check(restarted)
	return out, nil
}

// configureWave scales app.wave down and plants its noise seed.
func configureWave(scale float64, seed int64) repro.LaunchOption {
	return repro.WithConfigure(func(rank int, p repro.Program) {
		w := p.(*wavempi.Wave)
		w.ScaleSteps(scale)
		w.SetSeed(seed)
	})
}

// checkpointWave launches app.wave held, registers a checkpoint-and-exit
// into dir before releasing the ranks, so the image lands at the first
// safe point, and returns how long Start-to-image-complete took.
func checkpointWave(stack repro.Stack, configure repro.LaunchOption, dir string) (time.Duration, error) {
	job, err := repro.Launch(stack, "app.wave", configure, repro.WithHold())
	if err != nil {
		return 0, err
	}
	done := job.CheckpointAsync(dir, true)
	start := time.Now()
	job.Start()
	if err := <-done; err != nil {
		return 0, err
	}
	wrote := time.Since(start)
	return wrote, job.Wait()
}
