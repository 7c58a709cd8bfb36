// Command paperfigs regenerates the paper's evaluation figures — the OSU
// latency sweeps (Figures 2-4), the real-application completion times
// (Figure 5), the cross-implementation checkpoint/restart experiment
// (Figure 6), the FSGSBASE ablation, the recovery-overhead table
// ("recovery": time-to-recover vs checkpoint interval under an injected
// crash) — and, with -matrix, runs the scenario matrix: every valid
// app x MPI implementation x checkpointer combination, cross-restart
// pairings and the fault axis included, drained from a lease queue by
// -parallel workers, persisted as versioned JSON.
//
// Usage:
//
//	paperfigs [-fig 2,3,4,5,6|all|fsgsbase|recovery|shrinkrecovery|recoveryfrontier] [-quick] [-out results/] [-reps N] [-parallel N]
//	paperfigs -matrix [-full] [-faults=false] [-parallel N] [-out results.json] [-apps app.comd,app.wave] [-cells GLOBS]
//	paperfigs -matrix -cells '*/openmpi+*>mpich+*' -images images/  # keep the image sets for manactl
//	paperfigs -matrix -cells ID -trace traces/    # one Perfetto trace JSON per executed cell
//	paperfigs -matrix -remote http://host:8341 [-worker NAME] [-cache DIR]
//	paperfigs -fetch-report -remote http://host:8341 -out results.json
//	paperfigs -list [-faults=false] [-apps ...] [-cells GLOBS]  # print the cell set, run nothing
//	paperfigs -cache-prune -cache .scenario-cache # delete stale-engine cache entries, run nothing
//
// The "shrinkrecovery" figure compares the two recovery halves of
// fault-tolerant MPI on the same seeded rank crash: ULFM in-place
// recovery (revoke/shrink/recompute, no checkpointer) versus automated
// checkpoint/restart, per implementation. "recoveryfrontier" widens the
// comparison to all three recovery modes: replication failover (warm
// shadow replicas, ~2x steady-state message overhead, free recovery),
// ULFM shrink, and checkpoint/restart, against a fault-free anchor.
//
// Figure mode writes one CSV per figure into -out (a directory). Matrix
// mode writes one JSON report to -out (a file; ".json" is appended to the
// default). Figures run at paper scale (4x12 ranks, 5 repetitions) unless
// -quick; the matrix runs at the quick smoke scale unless -full, because
// it covers the whole combination space rather than one figure. The
// fault axis (rank-crash recovery over every restart pairing, node-crash
// over every cross-implementation pairing, NIC degradation over every
// plain cell) is on by default in matrix mode; -faults=false drops it.
//
// -cells narrows -matrix and -list to the cells whose ID matches one of
// its comma-separated globs; '*' matches any run of characters, '/'
// included, and every other character is literal, so an exact cell ID
// selects exactly that cell. '*!node-crash' is the cross-implementation
// node-crash recoveries, '*~shrink' the ULFM legs, '*~replicate' the
// failover legs. Each glob must match at least one cell.
//
// -cache serves cells whose inputs are unchanged from a persistent
// content-addressed result cache (figures and matrix alike).
// -cache-prune deletes entries stamped with a stale EngineVersion (each
// engine bump otherwise leaves its predecessors' whole generation of
// results dead on disk forever) plus undecodable ones, and exits.
//
// The service layer: -matrix -remote URL runs the same worker loop
// against a matrixd server's queue (cmd/matrixd), uploading results to
// its store; the server decides the cell set, scale and seeds, so the
// worker takes no matrix knobs, and a -cache directory is its local
// tier. -fetch-report -remote URL polls the server for the assembled
// report and writes it to -out, exiting nonzero on failed cells exactly
// like a local matrix run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/scenario/remote"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

// config is one parsed paperfigs command line.
type config struct {
	figs, out, apps, cells, cacheDir, images, remoteURL, worker, traceDir string
	quick, matrix, full, faults, list, prune, fetchReport                 bool
	reps, nodes, rpn, parallel                                            int
	seed                                                                  int64
}

// parse reads a command line into a config and rejects flag combinations
// that mean nothing, without running anything; flag errors and -h usage
// go to flagOut.
func parse(args []string, flagOut io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(flagOut)
	fs.StringVar(&c.figs, "fig", "all", "comma-separated figure list: 2,3,4,5,6,fsgsbase,recovery,shrinkrecovery,recoveryfrontier or 'all'")
	fs.BoolVar(&c.quick, "quick", false, "run figures at the small smoke configuration instead of paper scale")
	fs.StringVar(&c.out, "out", "results", "output directory for CSV files; JSON file path in -matrix mode")
	fs.IntVar(&c.reps, "reps", 0, "override repetition count")
	fs.IntVar(&c.nodes, "nodes", 0, "override node count")
	fs.IntVar(&c.rpn, "rpn", 0, "override ranks per node")
	fs.IntVar(&c.parallel, "parallel", 0, "bound on concurrently running scenarios (0 = one per CPU)")
	fs.BoolVar(&c.matrix, "matrix", false, "run the scenario matrix instead of figures")
	fs.BoolVar(&c.full, "full", false, "run the matrix at paper scale (default: quick smoke scale)")
	fs.StringVar(&c.apps, "apps", "", "override the matrix program axis (comma-separated registered programs; -matrix and -list)")
	fs.Int64Var(&c.seed, "seed", 0, "base seed perturbing every scenario's deterministic jitter seeds")
	fs.BoolVar(&c.faults, "faults", true, "include the fault-injection axis in the matrix (-matrix and -list)")
	fs.StringVar(&c.cells, "cells", "", "comma-separated globs over cell IDs ('*' matches anything); only matching cells run (-matrix and -list)")
	fs.StringVar(&c.cacheDir, "cache", "", "content-addressed result cache directory; unchanged cells are served from it instead of re-executing")
	fs.StringVar(&c.images, "images", "", "also write every executed cell's checkpoint images under this directory for manactl (-matrix only)")
	fs.BoolVar(&c.list, "list", false, "print the enumerated matrix cells (id, program, impl, ABI path, ckpt, restart pairing, fault) without executing anything")
	fs.BoolVar(&c.prune, "cache-prune", false, "delete cached cell results whose stamped engine version is stale (requires -cache), then exit without running anything")
	fs.StringVar(&c.remoteURL, "remote", "", "matrixd server URL; with -matrix this process becomes a work-stealing worker, with -fetch-report it downloads the assembled report")
	fs.StringVar(&c.worker, "worker", "", "worker name for matrixd provenance (-remote only; default host.pid)")
	fs.BoolVar(&c.fetchReport, "fetch-report", false, "poll the -remote server for the assembled matrix report, write it to -out and exit")
	fs.StringVar(&c.traceDir, "trace", "", "write one Chrome trace-event JSON (Perfetto-loadable, virtual-time) per executed cell into this directory (-matrix and -remote worker modes)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return c, c.validate()
}

func (c *config) validate() error {
	if c.prune {
		if c.cacheDir == "" {
			return errors.New("-cache-prune requires -cache")
		}
		if c.matrix || c.list || c.fetchReport {
			return errors.New("-cache-prune runs nothing; it conflicts with -matrix, -list and -fetch-report")
		}
		return nil
	}
	if c.images != "" && !c.matrix {
		return errors.New("-images requires -matrix")
	}
	if c.list {
		return nil
	}
	if c.full && c.quick {
		return errors.New("-full and -quick conflict; pick one")
	}
	if c.fetchReport {
		if c.remoteURL == "" {
			return errors.New("-fetch-report requires -remote")
		}
		if c.matrix {
			return errors.New("-fetch-report runs nothing; it conflicts with -matrix")
		}
		return nil
	}
	if c.remoteURL != "" {
		if !c.matrix {
			return errors.New("-remote requires -matrix (worker mode) or -fetch-report")
		}
		if c.full || c.apps != "" || c.cells != "" || c.images != "" || c.reps > 0 || c.nodes > 0 || c.rpn > 0 || c.seed != 0 || !c.faults {
			return errors.New("the matrixd server owns the cell set, scale and seeds; -full, -apps, -cells, -faults, -reps, -nodes, -rpn, -seed and -images do not apply to -remote workers")
		}
		return nil
	}
	if !c.matrix && (c.full || c.apps != "" || c.cells != "" || c.traceDir != "") {
		return errors.New("-full, -apps, -cells and -trace require -matrix")
	}
	return nil
}

// run executes one paperfigs command line, printing to out.
func run(args []string, out io.Writer) error {
	c, err := parse(args, os.Stderr)
	if err != nil {
		return err
	}
	switch {
	case c.prune:
		return runPrune(c.cacheDir, out)
	case c.list:
		return runList(c, out)
	case c.fetchReport:
		return runFetchReport(c.remoteURL, c.out, out)
	case c.remoteURL != "":
		return runWorker(c, out)
	case c.matrix:
		return runMatrix(c, out)
	}
	return runFigures(c, out)
}

// options is a run's scale: scenario.Full or scenario.Quick, with
// -reps, -nodes, -rpn, -parallel, -seed and -cache applied over it. Both
// figure and matrix mode run on it, so a figure's cells hash like the
// matrix cells of the same scale.
func (c *config) options(full bool) scenario.Options {
	o := scenario.Quick()
	if full {
		o = scenario.Full()
	}
	if c.reps > 0 {
		o.Reps = c.reps
	}
	if c.nodes > 0 {
		o.Nodes = c.nodes
	}
	if c.rpn > 0 {
		o.RanksPerNode = c.rpn
	}
	o.Parallel = c.parallel
	o.BaseSeed = c.seed
	o.CacheDir = c.cacheDir
	return o
}

func runFigures(c *config, out io.Writer) error {
	opts := c.options(!c.quick)

	names := strings.Split(c.figs, ",")
	if c.figs == "all" {
		names = []string{"2", "3", "4", "5", "6"}
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		fig, err := harness.ByName(name, opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		fmt.Fprintln(out, fig.Render())
		if err := fig.WriteCSV(c.out); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s/%s.csv\n\n", c.out, fig.ID)
	}
	return nil
}

func runPrune(cacheDir string, out io.Writer) error {
	cache, err := scenario.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	removed, err := cache.Prune()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pruned %d stale cache entries under %s (engine version %d retained)\n",
		removed, cacheDir, scenario.EngineVersion)
	return nil
}

// runList prints the selected cells without executing anything — the
// cheap way to eyeball what a cell set covers (e.g. the stdabi cells and
// their cross-restart pairings) before paying for a run.
func runList(c *config, out io.Writer) error {
	specs, err := c.specs()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-78s %-10s %-8s %-10s %-6s %-18s %s\n",
		"ID", "PROGRAM", "IMPL", "ABI", "CKPT", "RESTART", "FAULT")
	for _, s := range specs {
		restart := "-"
		if s.HasRestart() {
			restart = fmt.Sprintf("%s+%s", s.RestartImpl, s.RestartABI)
		}
		fault := "-"
		if s.Fault != "" {
			fault = string(s.Fault)
			if s.Recovery != "" {
				fault += "~" + s.Recovery
			}
		}
		fmt.Fprintf(out, "%-78s %-10s %-8s %-10s %-6s %-18s %s\n",
			s.ID(), s.Program, s.Impl, s.ABI, s.Ckpt, restart, fault)
	}
	fmt.Fprintf(out, "%d cells\n", len(specs))
	return nil
}

// specs applies the -apps, -faults and -cells knobs to the default
// matrix — one definition, so -list always prints exactly the cell set
// -matrix would run.
func (c *config) specs() ([]scenario.Spec, error) {
	m := scenario.DefaultMatrix()
	if !c.faults {
		m.Faults = nil
	}
	if c.apps != "" {
		m.Programs = splitList(c.apps)
	}
	all := m.Enumerate()
	if c.cells == "" {
		return all, nil
	}
	keep := make([]bool, len(all))
	for _, glob := range splitList(c.cells) {
		quoted := strings.Split(glob, "*")
		for i := range quoted {
			quoted[i] = regexp.QuoteMeta(quoted[i])
		}
		re := regexp.MustCompile("^" + strings.Join(quoted, ".*") + "$")
		matched := false
		for i, s := range all {
			if re.MatchString(s.ID()) {
				keep[i], matched = true, true
			}
		}
		if !matched {
			return nil, fmt.Errorf("-cells pattern %q matches no cell (use -list to enumerate the cell set)", glob)
		}
	}
	var specs []scenario.Spec
	for i, s := range all {
		if keep[i] {
			specs = append(specs, s)
		}
	}
	return specs, nil
}

func splitList(s string) []string {
	items := strings.Split(s, ",")
	for i := range items {
		items[i] = strings.TrimSpace(items[i])
	}
	return items
}

// writeReport is the epilogue of -matrix and -fetch-report modes.
func writeReport(rep *scenario.Report, path string, out io.Writer) error {
	if path == "results" { // the figure-mode default is a directory name
		path = "results.json"
	}
	return rep.Save(path, out)
}

// runWorker drains a matrixd server's lease queue. The server owns the
// cell set and every result-determining option; this process
// contributes hands (and, via -cache, a warm local tier whose hits are
// published instead of re-executed).
func runWorker(c *config, out io.Writer) error {
	name := c.worker
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	client, err := remote.Dial(c.remoteURL)
	if err != nil {
		return err
	}
	var local scenario.Store
	if c.cacheDir != "" {
		cache, err := scenario.OpenCache(c.cacheDir)
		if err != nil {
			return err
		}
		local = cache
	}
	parallel := c.parallel
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	man := client.Manifest()
	fmt.Fprintf(out, "worker %s: draining %d-cell matrix from %s (%d procs, engine v%d) ...\n",
		name, man.Cells, c.remoteURL, parallel, man.EngineVersion)
	stats, err := client.Drain(remote.WorkerConfig{
		Name: name, Procs: parallel, Local: local, TraceDir: c.traceDir,
	})
	fmt.Fprintf(out, "worker %s: %d executed (%d failed, %.1fs wall), %d local cache hits published\n",
		name, stats.Executed, stats.Failed, float64(stats.WallMS)/1000, stats.LocalHits)
	return err
}

// runFetchReport polls the server until every cell is complete and
// writes the assembled report through the same epilogue as a local
// matrix run — same rendering, same nonzero exit on failed cells.
func runFetchReport(url, path string, out io.Writer) error {
	client, err := remote.Dial(url)
	if err != nil {
		return err
	}
	rep, err := client.Report(2 * time.Second)
	if err != nil {
		return err
	}
	return writeReport(rep, path, out)
}

// runMatrix executes the selected cells and writes the JSON report.
func runMatrix(c *config, out io.Writer) error {
	o := c.options(c.full)
	o.TraceDir = c.traceDir
	o.KeepImages = c.images

	specs, err := c.specs()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "running %d scenarios (%d workers, %d reps each) ...\n", len(specs), o.Parallel, o.Reps)
	o.OnCell = matrixProgress(specs, o)
	return writeReport(scenario.Run(specs, o), c.out, out)
}

// matrixProgress builds the Options.OnCell hook that keeps a cold
// matrix run from sitting silent for half a minute: a rate-limited
// one-line status to stderr with done/live/cached counts and an ETA.
// The ETA charges each remaining cell its recorded wall time from the
// cache's hints when one exists, and the running live average
// otherwise, divided by the worker pool width — a schedule estimate,
// not a promise, so it rounds to the second.
func matrixProgress(specs []scenario.Spec, o scenario.Options) func(scenario.CellEvent) {
	hints := map[string]int64{}
	if o.CacheDir != "" {
		if cache, err := scenario.OpenCache(o.CacheDir); err == nil {
			hints = cache.Scan(nil)
		}
	}
	pool := o.Parallel
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	remaining := make(map[string]bool, len(specs))
	for _, s := range specs {
		remaining[s.ID()] = true
	}
	total := len(remaining)
	var (
		mu                 sync.Mutex
		done, live, cached int
		liveWall           int64
		lastLine           time.Time
	)
	return func(ev scenario.CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		delete(remaining, ev.ID)
		done++
		if ev.Cached {
			cached++
		} else {
			live++
			liveWall += ev.WallMS
		}
		now := time.Now()
		if done < total && now.Sub(lastLine) < 2*time.Second {
			return
		}
		lastLine = now
		var avg int64
		if live > 0 {
			avg = liveWall / int64(live)
		}
		var leftMS int64
		for id := range remaining {
			if h := hints[id]; h > 0 {
				leftMS += h
			} else {
				leftMS += avg
			}
		}
		eta := (time.Duration(leftMS/int64(pool)) * time.Millisecond).Round(time.Second)
		fmt.Fprintf(os.Stderr, "matrix: %d/%d done (%d live, %d cached), ~%s left\n",
			done, total, live, cached, eta)
	}
}
