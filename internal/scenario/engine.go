package scenario

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dmtcp"
	"repro/internal/faults"
	"repro/internal/osu"
	"repro/internal/stats"
	"repro/internal/trace"

	// The engine runs the registered workloads.
	_ "repro/internal/apps/comd"
	_ "repro/internal/apps/wavempi"
)

// Options scales and paces a matrix run.
type Options struct {
	// Nodes and RanksPerNode define the simulated cluster per scenario.
	Nodes        int `json:"nodes"`
	RanksPerNode int `json:"ranks_per_node"`
	// Reps is the repetition count; repetitions differ only in jitter
	// seed, and results carry medians and standard deviations over them.
	Reps int `json:"reps"`
	// MaxSize caps the message-size sweep of OSU benchmark scenarios.
	MaxSize int `json:"max_size"`
	// Iters/Warmup/ItersLarge are the OSU per-size iteration counts.
	Iters      int `json:"iters"`
	Warmup     int `json:"warmup"`
	ItersLarge int `json:"iters_large"`
	// AppScale scales application step counts (1.0 = paper scale).
	AppScale float64 `json:"app_scale"`
	// Parallel is the number of workers draining the run (0 = one per
	// CPU, capped). Excluded from reports: the CPU-derived default would
	// make reports differ across machines.
	Parallel int `json:"-"`
	// Timeout fails one scenario repetition that exceeds it, without
	// sinking the rest of the run (0 = no timeout).
	Timeout time.Duration `json:"timeout_ns"`
	// BaseSeed perturbs every derived jitter seed; runs with equal
	// BaseSeed and scale are reproducible.
	BaseSeed int64 `json:"base_seed"`
	// CkptEvery is the periodic checkpoint interval, in program steps,
	// for fault-injection cells (0 = 1: an image behind every safe
	// point, so a seeded fault always has a complete image to recover
	// from). Spec.CkptEvery overrides it per cell.
	CkptEvery uint64 `json:"ckpt_every"`
	// MaxRestarts bounds each fault cell's recovery retry budget.
	MaxRestarts int `json:"max_restarts"`
	// Scratch is inert. A cell keeps its checkpoint images in memory
	// (dmtcp.Mem) and reads no file, so no directory can change its
	// result; the field remains only for callers that still set it.
	Scratch string `json:"-"`
	// KeepImages, when set, also writes every executed cell's checkpoint
	// images under this directory, at <KeepImages>/<Lineage.Dir> and
	// <KeepImages>/<FaultRecord.ImageDir>, for inspection with manactl.
	// Cells restore only from their in-memory copy, so what the directory
	// held before never changes a result. Excluded from reports.
	KeepImages string `json:"-"`
	// CacheDir, when set, opens the directory Cache there (safe to share
	// between concurrent processes) as the run's store.
	CacheDir string `json:"-"`
	// Store, when set, is the run's store itself — a Cache, a matrixd
	// client, any Store — and takes precedence over CacheDir. The store is
	// the workers' local tier (see Run). Neither is in reports: where
	// results are stored never affects them.
	Store Store `json:"-"`
	// TraceDir, when set, writes one Chrome trace-event JSON file per
	// executed cell (Perfetto-loadable; see internal/trace and
	// docs/observability.md) to <TraceDir>/<cell-id-path>.json.
	// Excluded from reports and cell hashes: tracing observes a run, it
	// never affects one — timestamps are virtual, so the files are
	// byte-deterministic per seed.
	TraceDir string `json:"-"`
	// OnCell, when set, hears of every cell as a worker hands it back,
	// from the workers' goroutines concurrently (it must synchronize).
	OnCell func(CellEvent) `json:"-"`

	// sink is the per-cell trace sink, created by runOne when TraceDir
	// is set and threaded to the rep runners (unexported: plumbing, not
	// configuration).
	sink *trace.Sink
}

// CellEvent is one Options.OnCell progress notification.
type CellEvent struct {
	// ID is the scenario ID; Cached reports a store hit.
	ID     string
	Cached bool
	// WallMS is the cell's wall-clock cost: measured for live cells,
	// the original run's recorded cost for cached ones.
	WallMS int64
}

// Full returns the paper-scale configuration (4x12 ranks, 5 repetitions).
func Full() Options {
	return Options{
		Nodes: 4, RanksPerNode: 12, Reps: 5,
		MaxSize: 1 << 18, Iters: 20, Warmup: 4, ItersLarge: 4,
		AppScale: 1, Timeout: 10 * time.Minute,
	}
}

// Quick returns a minutes-scale smoke configuration for CI and laptops.
func Quick() Options {
	return Options{
		Nodes: 2, RanksPerNode: 4, Reps: 2,
		MaxSize: 1 << 12, Iters: 4, Warmup: 1, ItersLarge: 2,
		AppScale: 0.08, Timeout: 2 * time.Minute,
	}
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 2
	}
	if o.RanksPerNode <= 0 {
		o.RanksPerNode = 4
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.MaxSize <= 0 {
		o.MaxSize = 1 << 12
	}
	if o.Iters <= 0 {
		o.Iters = 4
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
		if o.Parallel > 8 {
			o.Parallel = 8
		}
	}
	if o.CkptEvery == 0 {
		o.CkptEvery = 1
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 3
	}
	return o
}

func (o Options) sizes() []int {
	var out []int
	for sz := 1; sz <= o.MaxSize; sz <<= 1 {
		out = append(out, sz)
	}
	return out
}

// configure plants the run scale and noise seed into a fresh program
// instance, for every workload shape the engine knows.
func (o Options) configure(seed int64) func(rank int, p core.Program) {
	return func(rank int, p core.Program) {
		if b, ok := p.(*osu.LatencyBench); ok {
			b.Sizes = o.sizes()
			b.Iters = o.Iters
			b.Warmup = o.Warmup
			b.ItersLarge = o.ItersLarge
			// The engine checkpoints at the first safe point via WithHold;
			// the wall-clock sleep window is not needed and only slows runs.
			b.SleepVirtual = 0
			b.SleepReal = 0
		}
		if s, ok := p.(interface{ ScaleSteps(f float64) }); ok && o.AppScale > 0 && o.AppScale != 1 {
			s.ScaleSteps(o.AppScale)
		}
		if s, ok := p.(interface{ SetSeed(s int64) }); ok {
			s.SetSeed(seed)
		}
	}
}

// runScenario executes one scenario; a package variable so pool tests can
// observe scheduling without running real stacks.
var runScenario = runOne

// Run executes the scenarios and returns the aggregated, ID-sorted
// report. o.Parallel in-process workers Drain a Queue of the cells,
// longest-expected-first, under leases that never expire: an in-process
// worker cannot die without the run. Every scenario produces a Result —
// panics, timeouts and stack failures are isolated to their own cell and
// reported as Status "fail". Duplicate scenario IDs collapse to their
// first occurrence.
//
// Options.Store (or the cache at Options.CacheDir) is the workers' local
// store tier: a cell whose content hash it holds a completed Result for
// is served from it instead of executing (and marked Cached; see
// Report.Provenance), and passing live results are stored back. The
// report's WallMS is the run's elapsed time.
func Run(specs []Spec, o Options) *Report {
	o = o.withDefaults()
	store := o.Store
	if store == nil && o.CacheDir != "" {
		// An unopenable cache degrades to a live run: caching is an
		// accelerator, never a correctness dependency.
		if c, err := OpenCache(o.CacheDir); err == nil {
			store = c
		}
	}
	start := time.Now() //mpivet:allow walltime -- wall_ms report metadata; never feeds event order or scenario hashes
	q := NewQueue(specs, o, 0, nil)
	_, _ = Drain(inProcess{q}, o, store, nil) // an in-process source never fails
	rep := q.Report()
	rep.WallMS = time.Since(start).Milliseconds() //mpivet:allow walltime -- wall_ms report metadata; never feeds event order or scenario hashes
	return rep
}

// inProcess is the Source Run's workers drain: a lease parks until a
// cell is grantable or the run is done, and a result completes its cell
// uncredited.
type inProcess struct{ q *Queue }

func (p inProcess) Lease() (*Lease, error) {
	l, _ := p.q.Lease(nil, nil)
	return l, nil
}

func (p inProcess) Complete(l *Lease, res Result) error {
	p.q.Complete(l.Hash, "", res, nil)
	return nil
}

// RunCell executes one cell live — no store consult — and returns its
// Result with the content address stamped: Drain's default execution.
func RunCell(s Spec, o Options) Result {
	o = o.withDefaults()
	res := runScenario(s, o)
	res.CellHash = CellHash(s, o)
	return res
}

// runOne executes one scenario's repetitions and aggregates them.
func runOne(s Spec, o Options) (res Result) {
	start := time.Now() //mpivet:allow walltime -- wall_ms report metadata; never feeds event order or scenario hashes
	res = Result{ID: s.ID(), Spec: s, Status: StatusPass, Reps: o.Reps}
	var cellLeg *trace.Leg
	if o.TraceDir != "" {
		o.sink = trace.NewSink()
		// A rank-less leg carrying the scenario layer's own lifecycle
		// events; job legs follow it in pid order. Cell events carry no
		// world clock, so they sit at virtual time zero.
		cellLeg = o.sink.NewLeg("cell "+res.ID, 0)
		cellLeg.Driver(trace.CatCell, "cell-start", 0,
			trace.Arg{Key: "id", Val: res.ID})
	}
	defer func() {
		if r := recover(); r != nil {
			res.Status = StatusFail
			res.Error = fmt.Sprintf("panic: %v", r)
		}
		res.WallMS = time.Since(start).Milliseconds() //mpivet:allow walltime -- wall_ms report metadata; never feeds event order or scenario hashes
		if o.sink != nil {
			cellLeg.Driver(trace.CatCell, "cell-done", 0,
				trace.Arg{Key: "status", Val: string(res.Status)})
			// Best-effort, like the result cache: a failed trace write
			// never fails the cell.
			_ = o.sink.WriteChromeFile(filepath.Join(o.TraceDir, idPath(res.ID)+".json"))
		}
	}()
	if err := s.Validate(); err != nil {
		res.Status = StatusFail
		res.Error = err.Error()
		return res
	}
	var launch, restart repSamples
	for rep := 0; rep < o.Reps; rep++ {
		if cellLeg != nil {
			cellLeg.Driver(trace.CatCell, "rep", 0,
				trace.Arg{Key: "rep", Val: trace.Itoa(rep)})
		}
		seed := seedFor(o.BaseSeed, s.Program, rep)
		res.Seeds = append(res.Seeds, seed)
		if s.Fault != "" {
			m, fr, err := runFaultRep(s, o, rep, seed)
			if err != nil {
				res.Status = StatusFail
				res.Error = fmt.Sprintf("rep %d: %v", rep, err)
				return res
			}
			launch.add(m)
			res.Faults = append(res.Faults, fr)
			continue
		}
		lm, rm, lin, err := runRep(s, o, rep, seed)
		if err != nil {
			res.Status = StatusFail
			res.Error = fmt.Sprintf("rep %d: %v", rep, err)
			return res
		}
		launch.add(lm)
		if s.HasRestart() {
			restart.add(rm)
			res.Lineage = append(res.Lineage, lin)
		}
	}
	res.Time = launch.timeSummary()
	res.Curve = launch.curve()
	if s.HasRestart() && s.Fault == "" {
		res.RestartTime = restart.timeSummary()
		res.RestartCurve = restart.curve()
	}
	return res
}

// runFaultRep runs one fault-injection repetition. nic-degrade completes
// under the degraded fabric with no recovery. Every crash kind goes
// through the one recovery driver in the cell's mode: restart (periodic
// checkpoints, typed detection, restart from the latest complete image
// under the restart stack when the scenario names one), shrink (survived
// in place by revoke/shrink/recompute) or replicate (the victim's warm
// shadow promoted in place). The returned measurement is the final
// completed job's, over logical ranks: a promoted logical rank reads its
// shadow's clock, since the dead primary's froze at the crash.
func runFaultRep(s Spec, o Options, rep int, seed int64) (measurement, FaultRecord, error) {
	var m measurement
	fr := FaultRecord{Rep: rep, Kind: string(s.Fault), Node: -1, Recovery: s.Recovery}
	stack := s.LaunchStack()
	stack.Net.Nodes = o.Nodes
	stack.Net.RanksPerNode = o.RanksPerNode
	stack.Net.Seed = seed
	// Armed against the LOGICAL cluster shape: under replicate the
	// resolved victim is always a primary.
	inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{{
		Kind: s.Fault, Rank: faults.Anywhere, Node: faults.Anywhere, Step: s.FaultStep,
	}}}, seed, stack.Net)
	if err != nil {
		return m, fr, err
	}

	if s.Fault == faults.KindNICDegrade {
		f := inj.Faults()[0]
		fr.Node = f.Node
		job, err := core.Launch(stack, s.Program,
			core.WithConfigure(o.configure(seed)), core.WithFaults(inj),
			core.WithTrace(o.sink))
		if err != nil {
			return m, fr, err
		}
		if err := core.WaitTimeout(job, o.Timeout); err != nil {
			return m, fr, err
		}
		return measureJob(job, stack.Net.Size()), fr, nil
	}

	pol := core.RecoveryPolicy{
		Mode:          core.RecoveryMode(s.Recovery),
		MaxRecoveries: o.MaxRestarts,
		LegTimeout:    o.Timeout,
	}
	if pol.Mode == core.RecoveryRestart {
		pol.ImageRoot = imageRoot(s, rep)
		if pol.Interval = s.CkptEvery; pol.Interval == 0 {
			pol.Interval = o.CkptEvery
		}
		if s.HasRestart() {
			r := s.RestartStack()
			r.Net = stack.Net
			pol.RestartStack = &r
			fr.RestartStack = r.Label()
		}
	}
	images, release := o.images()
	defer release()
	rr, err := core.RunWithRecovery(stack, s.Program, inj, pol,
		core.WithConfigure(o.configure(seed)), core.WithTrace(o.sink), core.WithImages(images))
	if rr != nil {
		switch pol.Mode {
		case core.RecoveryRestart:
			fr.Restarts = rr.Recoveries
		case core.RecoveryShrink:
			fr.Shrinks = rr.Recoveries
		case core.RecoveryReplicate:
			fr.Promotions = rr.Recoveries
		}
		if len(rr.Events) > 0 {
			ev := rr.Events[0]
			fr.Ranks = ev.Failure.Ranks
			fr.Node = ev.Failure.Node
			fr.Step = ev.Failure.Step
			fr.DetectVirtMS = float64(ev.Detected) / 1e6
			fr.ImageStep = ev.ImageStep
			fr.LostVirtMS = float64(ev.LostVirt.Nanoseconds()) / 1e6
			fr.Survivors = ev.Survivors
			fr.Promoted = ev.Promoted
			fr.ImageDir = ev.ImageSet
		}
	}
	if err != nil {
		return m, fr, err
	}
	m = measureJob(rr.Job, stack.Net.Size())
	// Fold the recomputation windows back in: Restart rewinds every
	// rank's virtual clock to the image's, so the final completion time
	// alone would read as if the crash never happened. The cell's time is
	// the virtual time-to-solution — completion plus the work each
	// failure threw away — which is what the recovery-overhead table
	// sweeps against the checkpoint interval. The in-place modes never
	// rewind (their LostVirt is zero): completion already is the
	// time-to-solution.
	for _, ev := range rr.Events {
		m.timeSecs += ev.LostVirt.Seconds()
	}
	return m, fr, nil
}

// runRep runs one repetition: launch (with the checkpoint/restart dance
// when the scenario has a restart leg) and measurement extraction.
func runRep(s Spec, o Options, rep int, seed int64) (launch, restarted measurement, lin Lineage, err error) {
	stack := s.LaunchStack()
	stack.Net.Nodes = o.Nodes
	stack.Net.RanksPerNode = o.RanksPerNode
	stack.Net.Seed = seed

	images, release := o.images()
	defer release()
	opts := []core.LaunchOption{core.WithConfigure(o.configure(seed)), core.WithTrace(o.sink), core.WithImages(images)}
	if s.HasRestart() {
		opts = append(opts, core.WithHold())
	}
	job, err := core.Launch(stack, s.Program, opts...)
	if err != nil {
		return launch, restarted, lin, err
	}
	var ckpt <-chan error
	set := imageRoot(s, rep)
	if s.HasRestart() {
		// Register the request before releasing the ranks: the checkpoint
		// lands deterministically at the first safe point, and the
		// original run continues to completion for comparison.
		ckpt = job.CheckpointAsync(set, false)
		job.Start()
	}
	if err := core.WaitTimeout(job, o.Timeout); err != nil {
		return launch, restarted, lin, err
	}
	if ckpt != nil {
		if err := <-ckpt; err != nil {
			return launch, restarted, lin, fmt.Errorf("checkpoint: %w", err)
		}
	}
	launch = measureJob(job, stack.Net.Size())
	if !s.HasRestart() {
		return launch, restarted, lin, nil
	}

	rstack := s.RestartStack()
	rstack.Net.Nodes = o.Nodes
	rstack.Net.RanksPerNode = o.RanksPerNode
	rstack.Net.Seed = seed
	rjob, err := core.Restart(set, rstack, core.WithTrace(o.sink), core.WithImages(images))
	if err != nil {
		return launch, restarted, lin, fmt.Errorf("restart: %w", err)
	}
	if err := core.WaitTimeout(rjob, o.Timeout); err != nil {
		return launch, restarted, lin, fmt.Errorf("restarted run: %w", err)
	}
	restarted = measureJob(rjob, rstack.Net.Size())

	lin = Lineage{Rep: rep, Dir: set, LaunchStack: stack.Label(), RestartStack: rstack.Label()}
	if meta, merr := images.Meta(set); merr == nil {
		lin.Step = meta.Step
	}
	return launch, restarted, lin, nil
}

// imageRoot names one repetition's checkpoint images within its store:
// the restart pairing's one set, or the root of the recovery lineage's
// periodic sets.
func imageRoot(s Spec, rep int) string {
	return filepath.Join(idPath(s.ID()), fmt.Sprintf("rep%02d", rep))
}

// images returns a fresh store for one repetition's checkpoint images —
// memory, mirrored under KeepImages when set — and the release to call
// once the repetition's jobs have finished.
func (o Options) images() (dmtcp.ImageStore, func()) {
	mem := dmtcp.NewMem()
	if o.KeepImages != "" {
		return dmtcp.Mirror(mem, dmtcp.Dir(o.KeepImages)), mem.Release
	}
	return mem, mem.Release
}

// measurement is one repetition's extracted observables.
type measurement struct {
	timeSecs float64
	sizes    []int
	means    []float64
}

// measureJob pulls the completion time (max virtual time over logical
// ranks) and, for OSU benchmarks, rank 0's per-size latency curve.
func measureJob(job *core.Job, ranks int) measurement {
	var m measurement
	for r := 0; r < ranks; r++ {
		if t := job.LogicalClock(r).Duration().Seconds(); t > m.timeSecs {
			m.timeSecs = t
		}
	}
	if b, ok := job.LogicalProgram(0).(*osu.LatencyBench); ok {
		m.sizes, m.means = b.Results()
	}
	return m
}

// repSamples accumulates measurements across repetitions.
type repSamples struct {
	times   []float64
	sizes   []int
	perSize [][]float64 // perSize[i][rep] = mean latency for sizes[i]
}

func (a *repSamples) add(m measurement) {
	a.times = append(a.times, m.timeSecs)
	if len(m.sizes) == 0 {
		return
	}
	if a.sizes == nil {
		a.sizes = m.sizes
		a.perSize = make([][]float64, len(m.sizes))
	}
	for i := range m.sizes {
		if i < len(a.perSize) {
			a.perSize[i] = append(a.perSize[i], m.means[i])
		}
	}
}

func (a *repSamples) timeSummary() *stats.Summary {
	if len(a.times) == 0 {
		return nil
	}
	s := stats.Summarize(a.times)
	return &s
}

func (a *repSamples) curve() *Curve {
	if len(a.sizes) == 0 {
		return nil
	}
	c := &Curve{Sizes: a.sizes}
	for i := range a.sizes {
		c.MedianUS = append(c.MedianUS, stats.Median(a.perSize[i]))
		c.StdDevUS = append(c.StdDevUS, stats.StdDev(a.perSize[i]))
	}
	return c
}
