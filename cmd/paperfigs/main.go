// Command paperfigs regenerates the paper's evaluation figures — the OSU
// latency sweeps (Figures 2-4), the real-application completion times
// (Figure 5), the cross-implementation checkpoint/restart experiment
// (Figure 6), the FSGSBASE ablation, the recovery-overhead table
// ("recovery": time-to-recover vs checkpoint interval under an injected
// crash) — and, with -matrix, runs the full scenario matrix: every valid
// app x MPI implementation x checkpointer combination, cross-restart
// pairings and the fault axis included, concurrently over a bounded
// worker pool, persisted as versioned JSON.
//
// Usage:
//
//	paperfigs [-fig 2,3,4,5,6|all|fsgsbase|recovery|shrinkrecovery|recoveryfrontier] [-quick] [-out results/] [-reps N] [-parallel N]
//	paperfigs -matrix [-full] [-faults=false] [-parallel N] [-out results.json] [-apps app.comd,app.wave]
//	paperfigs -matrix -shard 0/4 -cache .scenario-cache -out shard-0.json
//	paperfigs -matrix -remote http://host:8341 [-worker NAME] [-cache DIR]
//	paperfigs -fetch-report -remote http://host:8341 -out results.json
//	paperfigs -merge shard-0.json,shard-1.json,shard-2.json,shard-3.json -out results.json
//	paperfigs -matrix -trace traces/              # one Perfetto trace JSON per executed cell
//	paperfigs -trace-cell ID [-trace traces/]     # run one cell traced, print the trace path
//	paperfigs -list [-faults=false] [-apps ...]   # print the cell set, run nothing
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
// The incremental layer: -shard i/n runs only the i-th of n disjoint,
// deterministic slices of the matrix (independent processes cover the
// whole matrix with no coordination), -cache serves cells whose inputs
// are unchanged from a persistent content-addressed result cache (both
// modes), and -merge recombines shard/partial reports into one report —
// with provenance recording live-vs-cached cells and per-shard wall
// times — without running any scenarios.
// -cache-prune deletes entries stamped with a stale EngineVersion (each
// engine bump otherwise leaves its predecessors' whole generation of
// results dead on disk forever) plus undecodable ones, and exits.
//
// The service layer: -matrix -remote URL turns this process into a
// work-stealing worker against a matrixd server (cmd/matrixd) — it
// leases cells one at a time, executes them, and uploads the results to
// the server's content-addressed store; the server decides the cell
// set, scale and seeds, so the worker takes no matrix knobs. A -cache
// directory composes as a local read-through tier: locally warm cells
// are published without re-executing. -fetch-report -remote URL polls
// the server for the assembled report and writes it to -out, exiting
// nonzero on failed cells exactly like a local matrix run. CI runs the
// matrix as one matrixd plus a worker fleet; -shard/-merge keep working
// for offline, serverless runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/scenario/remote"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated figure list: 2,3,4,5,6,fsgsbase,recovery,shrinkrecovery,recoveryfrontier or 'all'")
		quick     = flag.Bool("quick", false, "run figures at the small smoke configuration instead of paper scale")
		out       = flag.String("out", "results", "output directory for CSV files; JSON file path in -matrix mode")
		reps      = flag.Int("reps", 0, "override repetition count")
		nodes     = flag.Int("nodes", 0, "override node count")
		rpn       = flag.Int("rpn", 0, "override ranks per node")
		parallel  = flag.Int("parallel", 0, "bound on concurrently running scenarios (0 = one per CPU)")
		matrix    = flag.Bool("matrix", false, "run the full scenario matrix instead of figures")
		full      = flag.Bool("full", false, "run the matrix at paper scale (default: quick smoke scale)")
		apps      = flag.String("apps", "", "override the matrix program axis (comma-separated registered programs; -matrix only)")
		seed      = flag.Int64("seed", 0, "base seed perturbing every scenario's deterministic jitter seeds")
		withFlt   = flag.Bool("faults", true, "include the fault-injection axis in the matrix (-matrix only)")
		shardSel  = flag.String("shard", "", "run only one deterministic slice of the matrix, format i/n with 0 <= i < n (-matrix only)")
		cacheDir  = flag.String("cache", "", "content-addressed result cache directory; unchanged cells are served from it instead of re-executing")
		mergeIn   = flag.String("merge", "", "comma-separated shard/partial report JSONs to merge into one report at -out (runs nothing)")
		list      = flag.Bool("list", false, "print the enumerated matrix cells (id, program, impl, ABI path, ckpt, restart pairing, fault) without executing anything")
		prune     = flag.Bool("cache-prune", false, "delete cached cell results whose stamped engine version is stale (requires -cache), then exit without running anything")
		remoteURL = flag.String("remote", "", "matrixd server URL; with -matrix this process becomes a work-stealing worker, with -fetch-report it downloads the assembled report")
		workerNm  = flag.String("worker", "", "worker name for matrixd provenance (-remote only; default host.pid)")
		fetchRep  = flag.Bool("fetch-report", false, "poll the -remote server for the assembled matrix report, write it to -out and exit")
		traceDir  = flag.String("trace", "", "write one Chrome trace-event JSON (Perfetto-loadable, virtual-time) per executed cell into this directory (-matrix, -remote worker and -trace-cell modes)")
		traceCell = flag.String("trace-cell", "", "run exactly one matrix cell by ID with tracing on, write its trace under -trace (default traces/), and exit")
	)
	flag.Parse()

	if *prune {
		if *cacheDir == "" {
			fatal(fmt.Errorf("-cache-prune requires -cache"))
		}
		if *matrix || *list || *mergeIn != "" || *shardSel != "" {
			fatal(fmt.Errorf("-cache-prune runs nothing; it conflicts with -matrix, -list, -merge and -shard"))
		}
		cache, err := scenario.OpenCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		removed, err := cache.Prune()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pruned %d stale cache entries under %s (engine version %d retained)\n",
			removed, *cacheDir, scenario.EngineVersion)
		return
	}

	if *list {
		var shard scenario.Shard
		if *shardSel != "" {
			var err error
			if shard, err = scenario.ParseShard(*shardSel); err != nil {
				fatal(err)
			}
		}
		runList(*apps, *withFlt, shard)
		return
	}

	if *full && *quick {
		fatal(fmt.Errorf("-full and -quick conflict; pick one"))
	}
	if *traceCell != "" {
		if *matrix || *mergeIn != "" || *shardSel != "" || *remoteURL != "" || *fetchRep {
			fatal(fmt.Errorf("-trace-cell runs one cell; it conflicts with -matrix, -merge, -shard, -remote and -fetch-report"))
		}
		runTraceCell(*traceCell, *traceDir, *full, *withFlt, *apps, *reps, *nodes, *rpn, *seed)
		return
	}
	if *fetchRep {
		if *remoteURL == "" {
			fatal(fmt.Errorf("-fetch-report requires -remote"))
		}
		if *matrix || *mergeIn != "" || *shardSel != "" {
			fatal(fmt.Errorf("-fetch-report runs nothing; it conflicts with -matrix, -merge and -shard"))
		}
		runFetchReport(*remoteURL, *out)
		return
	}
	if *remoteURL != "" {
		if !*matrix {
			fatal(fmt.Errorf("-remote requires -matrix (worker mode) or -fetch-report"))
		}
		if *shardSel != "" || *mergeIn != "" {
			fatal(fmt.Errorf("-remote workers steal work from the server's lease queue; -shard and -merge do not apply"))
		}
		if *full || *apps != "" || *reps > 0 || *nodes > 0 || *rpn > 0 || *seed != 0 || !*withFlt {
			fatal(fmt.Errorf("the matrixd server owns the cell set, scale and seeds; -full, -apps, -faults, -reps, -nodes, -rpn and -seed do not apply to -remote workers"))
		}
		runWorker(*remoteURL, *workerNm, *parallel, *cacheDir, *traceDir)
		return
	}
	if *mergeIn != "" {
		if *matrix || *shardSel != "" || *cacheDir != "" {
			fatal(fmt.Errorf("-merge runs nothing; it conflicts with -matrix, -shard and -cache"))
		}
		runMerge(strings.Split(*mergeIn, ","), *out)
		return
	}
	var shard scenario.Shard
	if *shardSel != "" {
		var err error
		if shard, err = scenario.ParseShard(*shardSel); err != nil {
			fatal(err)
		}
	}
	if *matrix {
		runMatrix(*full, *withFlt, *parallel, *reps, *nodes, *rpn, *seed, *apps, *cacheDir, *traceDir, shard, *out)
		return
	}
	if *full || *apps != "" || *shardSel != "" || *traceDir != "" {
		fatal(fmt.Errorf("-full, -apps, -shard and -trace require -matrix"))
	}

	opts := harness.Full()
	if *quick {
		opts = harness.Quick()
	}
	opts.Cache = *cacheDir
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *nodes > 0 {
		opts.Nodes = *nodes
	}
	if *rpn > 0 {
		opts.RanksPerNode = *rpn
	}
	opts.Parallel = *parallel
	opts.Seed = *seed

	names := strings.Split(*figs, ",")
	if *figs == "all" {
		names = []string{"2", "3", "4", "5", "6"}
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		fig, err := harness.ByName(name, opts)
		if err != nil {
			fatal(fmt.Errorf("figure %s: %w", name, err))
		}
		fmt.Println(fig.Render())
		if err := fig.WriteCSV(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s/%s.csv\n\n", *out, fig.ID)
	}
}

// runList prints the enumerated matrix without executing anything — the
// cheap way to eyeball what a cell set covers (e.g. the stdabi cells and
// their cross-restart pairings) before paying for a run.
func runList(apps string, withFaults bool, shard scenario.Shard) {
	specs := shard.Select(buildMatrix(apps, withFaults).Enumerate())
	if shard.Count > 0 {
		fmt.Printf("shard %d/%d:\n", shard.Index, shard.Count)
	}
	fmt.Printf("%-78s %-10s %-8s %-10s %-6s %-18s %s\n",
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
		fmt.Printf("%-78s %-10s %-8s %-10s %-6s %-18s %s\n",
			s.ID(), s.Program, s.Impl, s.ABI, s.Ckpt, restart, fault)
	}
	fmt.Printf("%d cells\n", len(specs))
}

// buildMatrix applies the shared -apps/-faults knobs to the default
// matrix — one definition, so -list always prints exactly the cell set
// -matrix would run.
func buildMatrix(apps string, withFaults bool) scenario.MatrixSpec {
	m := scenario.DefaultMatrix()
	if !withFaults {
		m.Faults = nil
	}
	if apps != "" {
		m.Programs = strings.Split(apps, ",")
		for i := range m.Programs {
			m.Programs[i] = strings.TrimSpace(m.Programs[i])
		}
	}
	return m
}

// runMerge recombines shard/partial reports into one and writes it.
func runMerge(paths []string, out string) {
	var parts []*scenario.Report
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		rep, err := scenario.ReadReport(p)
		if err != nil {
			fatal(err)
		}
		parts = append(parts, rep)
	}
	merged, err := scenario.MergeReports(parts...)
	if err != nil {
		fatal(err)
	}
	writeReport(merged, out, fmt.Sprintf("merged from %d reports", len(parts)))
}

// writeReport renders, persists and pass/fail-gates a matrix report:
// the shared epilogue of -matrix and -merge modes.
func writeReport(rep *scenario.Report, out, detail string) {
	fmt.Println(rep.Render())
	printProvenance(rep)
	path := out
	if path == "results" { // the figure-mode default is a directory name
		path = "results.json"
	}
	if err := rep.WriteJSON(path); err != nil {
		fatal(err)
	}
	if detail != "" {
		detail = ", " + detail
	}
	fmt.Printf("wrote %s (schema v%d%s)\n", path, scenario.SchemaVersion, detail)
	if rep.Failed > 0 {
		fatal(fmt.Errorf("%d of %d scenarios failed", rep.Failed, rep.Scenarios))
	}
}

// printProvenance summarizes the live/cached split and per-shard costs.
func printProvenance(rep *scenario.Report) {
	p := rep.Provenance
	if p == nil {
		return
	}
	fmt.Printf("provenance: %d live, %d cached\n", p.Live, p.Cached)
	for _, sh := range p.Shards {
		if sh.Count > 0 {
			fmt.Printf("  shard %d/%d: %d cells (%d live, %d cached), %.1fs wall\n",
				sh.Index, sh.Count, sh.Scenarios, sh.Live, sh.Cached, float64(sh.WallMS)/1000)
		} else {
			fmt.Printf("  partial %d: %d cells (%d live, %d cached), %.1fs wall\n",
				sh.Index, sh.Scenarios, sh.Live, sh.Cached, float64(sh.WallMS)/1000)
		}
	}
}

// runWorker drains a matrixd server's lease queue: the work-stealing
// replacement for a -shard slice. The server owns the cell set and
// every result-determining option; this process contributes hands (and,
// via -cache, a warm local tier whose hits are published instead of
// re-executed).
func runWorker(url, name string, parallel int, cacheDir, traceDir string) {
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	client, err := remote.Dial(url)
	if err != nil {
		fatal(err)
	}
	var local scenario.Store
	if cacheDir != "" {
		cache, err := scenario.OpenCache(cacheDir)
		if err != nil {
			fatal(err)
		}
		local = cache
	}
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	man := client.Manifest()
	fmt.Printf("worker %s: draining %d-cell matrix from %s (%d procs, engine v%d) ...\n",
		name, man.Cells, url, parallel, man.EngineVersion)
	stats, err := client.Drain(remote.WorkerConfig{
		Name: name, Procs: parallel, Local: local, TraceDir: traceDir,
	})
	fmt.Printf("worker %s: %d executed (%d failed, %.1fs wall), %d local cache hits published\n",
		name, stats.Executed, stats.Failed, float64(stats.WallMS)/1000, stats.LocalHits)
	if err != nil {
		fatal(err)
	}
}

// runFetchReport polls the server until every cell is complete and
// writes the assembled report through the same epilogue as a local
// matrix run — same rendering, same nonzero exit on failed cells.
func runFetchReport(url, out string) {
	client, err := remote.Dial(url)
	if err != nil {
		fatal(err)
	}
	rep, err := client.Report(2 * time.Second)
	if err != nil {
		fatal(err)
	}
	writeReport(rep, out, fmt.Sprintf("assembled by %s", url))
}

// runMatrix executes the scenario matrix and writes the JSON report.
func runMatrix(full, withFaults bool, parallel, reps, nodes, rpn int, seed int64, apps, cache, traceDir string, shard scenario.Shard, out string) {
	o := scenario.Quick()
	if full {
		o = scenario.Full()
	}
	o.CacheDir = cache
	o.Shard = shard
	o.TraceDir = traceDir
	if parallel > 0 {
		o.Parallel = parallel
	}
	if reps > 0 {
		o.Reps = reps
	}
	if nodes > 0 {
		o.Nodes = nodes
	}
	if rpn > 0 {
		o.RanksPerNode = rpn
	}
	o.BaseSeed = seed

	specs := buildMatrix(apps, withFaults).Enumerate()
	owned := len(shard.Select(specs))
	if owned != len(specs) {
		fmt.Printf("running shard %d/%d: %d of %d scenarios (%d workers, %d reps each) ...\n",
			shard.Index, shard.Count, owned, len(specs), o.Parallel, o.Reps)
	} else {
		fmt.Printf("running %d scenarios (%d workers, %d reps each) ...\n", len(specs), o.Parallel, o.Reps)
	}
	o.OnCell = matrixProgress(shard.Select(specs), o)

	rep := scenario.Run(specs, o)
	writeReport(rep, out, "")
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
			hints = cache.WallHints()
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
		if done < ev.Total && now.Sub(lastLine) < 2*time.Second {
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
			done, ev.Total, live, cached, eta)
	}
}

// runTraceCell executes one named matrix cell with tracing on and
// reports where the Perfetto-loadable trace landed — the one-command
// way to look at a specific cell's virtual-time execution (e.g. a
// rank-crash shrink-recovery cell's revoke/agree rounds).
func runTraceCell(id, traceDir string, full, withFaults bool, apps string, reps, nodes, rpn int, seed int64) {
	if traceDir == "" {
		traceDir = "traces"
	}
	o := scenario.Quick()
	if full {
		o = scenario.Full()
	}
	o.TraceDir = traceDir
	if reps > 0 {
		o.Reps = reps
	}
	if nodes > 0 {
		o.Nodes = nodes
	}
	if rpn > 0 {
		o.RanksPerNode = rpn
	}
	o.BaseSeed = seed
	for _, s := range buildMatrix(apps, withFaults).Enumerate() {
		if s.ID() != id {
			continue
		}
		res := scenario.RunCell(s, o)
		fmt.Printf("cell %s: %s (%.1fs wall)\n", id, res.Status, float64(res.WallMS)/1000)
		fmt.Printf("trace: %s (load in https://ui.perfetto.dev)\n",
			filepath.Join(traceDir, scenario.TraceFileName(id)))
		if res.Status != scenario.StatusPass {
			fatal(fmt.Errorf("cell failed: %s", res.Error))
		}
		return
	}
	fatal(fmt.Errorf("no matrix cell with ID %q (use -list to enumerate the cell set)", id))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
