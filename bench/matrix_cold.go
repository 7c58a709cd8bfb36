package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"

	"repro/internal/scenario"
)

// Cell classes of the matrix, heaviest first: the order a slice runs its
// cells in, so no worker starts a 250 ms crash cell while the other is
// already idle.
var cellClasses = []string{"crash_restart", "restart", "shrink", "replicate", "nic_degrade", "plain"}

func cellClass(s scenario.Spec) string {
	switch {
	case s.Fault == "nic-degrade":
		return "nic_degrade"
	case s.Recovery == scenario.RecoveryShrink:
		return "shrink"
	case s.Recovery == scenario.RecoveryReplicate:
		return "replicate"
	case s.Fault != "":
		return "crash_restart"
	case s.HasRestart():
		return "restart"
	}
	return "plain"
}

// coldSlices is how many slices the 252 cells are dealt into. Six is the
// finest deal in which the classes that carry the cost come out even: 42
// cells a slice, 14 of them crash-recovery cells and 10 restart cells,
// half app.comd and half app.wave, about three seconds of wall time.
const coldSlices = 6

// dealCells partitions specs into k slices of equal class mix: cells are
// grouped by (class, fault kind, program), shuffled inside each group
// from the seed, and dealt round-robin with the dealing position carried
// across groups so remainders spread out instead of piling on slice 0.
func dealCells(specs []scenario.Spec, k int, seed int64) [][]scenario.Spec {
	groups := make(map[string][]scenario.Spec)
	var keys []string
	for _, s := range specs {
		key := fmt.Sprintf("%d|%s|%s", classRank(cellClass(s)), s.Fault, s.Program)
		if _, ok := groups[key]; !ok {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], s)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(seed))
	parts := make([][]scenario.Spec, k)
	next := 0
	for _, key := range keys {
		g := groups[key]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for _, s := range g {
			parts[next%k] = append(parts[next%k], s)
			next++
		}
	}
	return parts
}

func classRank(class string) int {
	for i, c := range cellClasses {
		if c == class {
			return i
		}
	}
	return len(cellClasses)
}

// matrixCells is the size of the default matrix.
func matrixCells() int { return len(scenario.DefaultMatrix().Enumerate()) }

type matrixCold struct {
	cfg   config
	opts  scenario.Options
	parts [][]scenario.Spec
	warm  []scenario.Spec // the warm-up slice
}

func setupMatrixCold(cfg config) (instance, error) {
	specs := scenario.DefaultMatrix().Enumerate()
	// The first two cells of each class, per program, are the warm-up
	// slice; the first of one program is the whole workload at smoke scale.
	seen := make(map[string]int)
	var warm, few []scenario.Spec
	for _, s := range specs {
		key := cellClass(s) + s.Program
		if seen[key] < 2 {
			warm = append(warm, s)
		}
		if seen[key] == 0 && s.Program == specs[0].Program {
			few = append(few, s)
		}
		seen[key]++
	}
	k := coldSlices
	if cfg.smoke {
		specs, k = few, 1
	}
	m := &matrixCold{cfg: cfg, opts: scenario.Quick(), parts: dealCells(specs, k, cfg.seed), warm: dealCells(warm, 1, cfg.seed)[0]}
	m.opts.Reps = 1
	m.opts.Parallel = workers
	m.opts.BaseSeed = cfg.seed
	// The slices must be exactly the enumerated matrix, each cell once.
	ids := make(map[string]bool, len(specs))
	for _, p := range m.parts {
		for _, s := range p {
			ids[s.ID()] = true
		}
	}
	if len(ids) != len(specs) {
		return nil, fmt.Errorf("matrix_cold: slices hold %d distinct cells, the matrix has %d", len(ids), len(specs))
	}
	return m, nil
}

func (m *matrixCold) slice(i int, tr *tracer) (sliceResult, error) {
	part := m.warm
	if i != warmupSlice {
		part = m.parts[i%len(m.parts)]
	}
	scratch, err := m.cfg.scratchDir("cold-*")
	if err != nil {
		return sliceResult{}, err
	}
	defer os.RemoveAll(scratch)
	opts := m.opts
	opts.Scratch = scratch

	var results []scenario.Result
	if tr == nil {
		results = scenario.Run(part, opts).Results
	} else {
		results = runCellsTraced(part, opts, tr, i)
	}
	return checkCells(part, results), nil
}

// runCellsTraced is the traced stand-in for scenario.Run: the same
// two-worker closed loop, driving scenario.RunCell directly so each cell
// gets a span of its own.
func runCellsTraced(part []scenario.Spec, opts scenario.Options, tr *tracer, op int) []scenario.Result {
	root := tr.begin("matrix_cold.slice", -1, op)
	defer tr.end(root)
	results := make([]scenario.Result, len(part))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				id := tr.begin("scenario.run_cell."+cellClass(part[j]), root, op)
				results[j] = scenario.RunCell(part[j], opts)
				tr.end(id)
			}
		}()
	}
	for j := range part {
		work <- j
	}
	close(work)
	wg.Wait()
	return results
}

// checkCells is matrix_cold's output check: every cell of the slice came
// back, passed, and every crash cell recorded exactly one recovery of its
// kind. One failed check fails that cell's operation.
func checkCells(part []scenario.Spec, results []scenario.Result) sliceResult {
	byID := make(map[string]scenario.Result, len(results))
	for _, r := range results {
		byID[r.ID] = r
	}
	out := sliceResult{ops: len(part)}
	for _, s := range part {
		r, ok := byID[s.ID()]
		if !ok || r.Status != scenario.StatusPass || r.Time == nil || !recoveredOnce(s, r) {
			out.failed++
			continue
		}
		out.virtUS += r.Time.Median * 1e6
	}
	if len(byID) != len(part) {
		out.failed++
	}
	return out
}

func recoveredOnce(s scenario.Spec, r scenario.Result) bool {
	class := cellClass(s)
	if class == "plain" || class == "restart" {
		return len(r.Faults) == 0
	}
	if len(r.Faults) != 1 {
		return false
	}
	f := r.Faults[0]
	switch class {
	case "crash_restart":
		return f.Restarts == 1
	case "shrink":
		return f.Shrinks == 1
	case "replicate":
		return f.Promotions == 1
	}
	return true // nic_degrade completes without recovery
}
