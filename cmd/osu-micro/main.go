// Command osu-micro runs one OSU-style micro-benchmark under a chosen
// stack, the reproduction's analog of running osu_alltoall under mpirun
// with optional Mukautuva/MANA interposition:
//
//	osu-micro -bench alltoall -impl openmpi -abi mukautuva -ckpt mana
//
// -cpuprofile and -memprofile write pprof profiles of the run — the host
// cost of simulating it, not the virtual latencies it prints; see
// REPRODUCING.md "Profiling the simulator".
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro"
	"repro/internal/core"
	"repro/internal/osu"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "osu-micro:", err)
		os.Exit(1)
	}
}

// run is main with its inputs and output made explicit, so the smoke
// test can drive it in-process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("osu-micro", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "alltoall", "benchmark: alltoall, bcast, allreduce")
		impl       = fs.String("impl", "mpich", "MPI implementation: mpich, openmpi, stdabi")
		abiMod     = fs.String("abi", "native", "binding: native, mukautuva")
		ckpt       = fs.String("ckpt", "none", "checkpoint package: none, mana")
		nodes      = fs.Int("nodes", 4, "compute nodes")
		rpn        = fs.Int("rpn", 12, "ranks per node")
		iters      = fs.Int("iters", 20, "measured iterations per size")
		warmup     = fs.Int("warmup", 4, "warm-up iterations")
		maxSz      = fs.Int("max-size", 1<<18, "largest message size in bytes")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
		memProfile = fs.String("memprofile", "", "write an allocation profile to `file` when the run ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	stack := repro.DefaultStack(repro.Impl(*impl), repro.ABIMode(*abiMod), repro.CkptMode(*ckpt))
	stack.Net.Nodes = *nodes
	stack.Net.RanksPerNode = *rpn
	if err := stack.Validate(); err != nil {
		return err
	}
	prog := "osu." + *bench
	job, err := repro.Launch(stack, prog, repro.WithConfigure(func(rank int, p core.Program) {
		b := p.(*osu.LatencyBench)
		b.Iters = *iters
		b.Warmup = *warmup
		var sizes []int
		for sz := 1; sz <= *maxSz; sz <<= 1 {
			sizes = append(sizes, sz)
		}
		b.Sizes = sizes
	}))
	if err != nil {
		return err
	}
	if err := job.Wait(); err != nil {
		return err
	}
	b := job.Program(0).(*osu.LatencyBench)
	sizes, means := b.Results()
	fmt.Fprintf(out, "# OSU Micro-Benchmark (simulated): MPI_%s\n", titleOf(*bench))
	fmt.Fprintf(out, "# Stack: %s, %d ranks (%dx%d)\n", stack.Label(), stack.Net.Size(), *nodes, *rpn)
	fmt.Fprintf(out, "%-12s %s\n", "# Size", "Avg Latency(us)")
	for i, sz := range sizes {
		fmt.Fprintf(out, "%-12d %.2f\n", sz, means[i])
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // so the profile covers everything the run allocated
		return pprof.Lookup("allocs").WriteTo(f, 0)
	}
	return nil
}

func titleOf(bench string) string {
	switch bench {
	case "alltoall":
		return "Alltoall"
	case "bcast":
		return "Bcast"
	case "allreduce":
		return "Allreduce"
	}
	return bench
}
