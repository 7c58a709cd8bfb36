package main

import (
	"fmt"
	"os"
)

// workers is the closed-loop width of every workload: two workers,
// clients or Parallel slots, each issuing its next operation when the
// previous one returns. It is a constant, not runtime.NumCPU(), and
// GOMAXPROCS is pinned to it, so numbers compare across machines with at
// least two cores.
const workers = 2

// config is what a workload instance is built from. The program under
// test sees only inputs generated from seed.
type config struct {
	seed  int64
	smoke bool   // the < 15 s `go test` scale
	tmp   string // scratch root, owned and removed by the caller
}

// sliceResult is the outcome of one slice: operations completed, how
// many of them failed an output check, and the virtual microseconds the
// simulated cluster spent, summed over the operations.
type sliceResult struct {
	ops    int
	failed int
	virtUS float64
}

func (r *sliceResult) add(o sliceResult) {
	r.ops += o.ops
	r.failed += o.failed
	r.virtUS += o.virtUS
}

// warmupSlice is the slice index of the untimed slice that ends set-up.
const warmupSlice = -1

// instance is one set-up workload. A slice is a fixed, balanced unit of
// work: every slice of a workload holds the same mix of operations, so
// per-slice rates are samples of one quantity and the run reports their
// median. Timed slices are numbered from 0; tr is nil on an untraced one.
type instance interface {
	slice(i int, tr *tracer) (sliceResult, error)
}

// verifier is implemented by a workload whose output checks do not all
// fit inside a slice; verify runs after the timed section.
type verifier interface {
	verify() (sliceResult, error)
}

type workload struct {
	name string
	// pass is how many consecutive slices cover the workload's input
	// once. A run ends on a pass boundary, so the work it measured — and
	// with it allocation and virtual time per operation — does not depend
	// on where the clock ran out.
	pass  int
	setup func(cfg config) (instance, error)
}

// workloads is the benchmark's fixed order; BENCHMARK.json lists the same
// four names, each with the reason it was chosen.
var workloads = []workload{
	{"matrix_cold", coldSlices, setupMatrixCold},
	{"collective_scale", 1, setupCollectiveScale},
	{"stack_sweep", 1, setupStackSweep},
	{"matrix_service", 1, setupMatrixService},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scratchDir makes a fresh directory under the run's scratch root.
func (c config) scratchDir(pattern string) (string, error) {
	return os.MkdirTemp(c.tmp, pattern)
}
