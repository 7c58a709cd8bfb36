// Package harness drives the paper's evaluation: one entry point per
// figure (Figures 2-6 of Section 5, plus the FSGSBASE ablation its
// overhead analysis implies, plus the recovery-overhead table that puts
// the title's fault tolerance under an actually-injected failure),
// producing the same series the paper plots, with the same protocol
// (medians of repeated runs; Figure 5 adds standard deviations).
//
// The harness owns no experiment loops of its own: each figure names the
// scenarios it needs, hands them to the internal/scenario matrix engine,
// and renders the figure as a query over the engine's results. Running a
// figure and running the full matrix therefore measure the same way.
//
// In the README's layer diagram the harness sits above the stack
// column next to internal/scenario, driving every row below it —
// Section 5's evaluation protocol made executable.
package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Options scales an experiment. Full() reproduces the paper's setup;
// Quick() is a minutes-scale smoke configuration for CI and tests.
type Options struct {
	// Nodes and RanksPerNode define the cluster (the paper: 4 x 12).
	Nodes, RanksPerNode int
	// Reps is the number of repetitions (the paper: 5).
	Reps int
	// MaxSize caps the message-size sweep (the paper: 256 KiB).
	MaxSize int
	// Iters/Warmup are the OSU per-size iteration counts; ItersLarge
	// applies to sizes of 32 KiB and up (OSU's reduced large-message
	// counts).
	Iters, Warmup, ItersLarge int
	// AppScale scales the Figure 5 applications' step counts (1.0 = paper
	// scale).
	AppScale float64
	// Parallel bounds the scenario engine's worker pool (0 = per-CPU).
	Parallel int
	// Timeout fails one deadlocked scenario instead of hanging the figure
	// (0 = the engine's default for the scale).
	Timeout time.Duration
	// Seed perturbs the engine's deterministic per-scenario jitter seeds.
	Seed int64
	// Cache, when set, is the engine's content-addressed result cache
	// directory: figures re-run over unchanged code and options serve
	// their scenarios from disk instead of re-executing them.
	Cache string
}

// Full returns the paper-scale configuration.
func Full() Options {
	return Options{Nodes: 4, RanksPerNode: 12, Reps: 5, MaxSize: 1 << 18, Iters: 20, Warmup: 4, ItersLarge: 4, AppScale: 1, Timeout: 30 * time.Minute}
}

// Quick returns a small configuration for tests.
func Quick() Options {
	return Options{Nodes: 2, RanksPerNode: 4, Reps: 2, MaxSize: 1 << 12, Iters: 4, Warmup: 1, ItersLarge: 2, AppScale: 0.08, Timeout: 5 * time.Minute}
}

func (o Options) ranks() int { return o.Nodes * o.RanksPerNode }

// matrixOptions translates figure options into engine options.
func (o Options) matrixOptions() scenario.Options {
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Minute // never run a figure without a deadlock bound
	}
	return scenario.Options{
		Nodes: o.Nodes, RanksPerNode: o.RanksPerNode, Reps: o.Reps,
		MaxSize: o.MaxSize, Iters: o.Iters, Warmup: o.Warmup, ItersLarge: o.ItersLarge,
		AppScale: o.AppScale, Parallel: o.Parallel, Timeout: timeout,
		BaseSeed: o.Seed, CacheDir: o.Cache,
	}
}

// fourSpecs is the paper's standard comparison matrix over one program.
func fourSpecs(prog string) []scenario.Spec {
	return []scenario.Spec{
		{Program: prog, Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		{Program: prog, Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA},
		{Program: prog, Impl: core.ImplOpenMPI, ABI: core.ABINative, Ckpt: core.CkptNone},
		{Program: prog, Impl: core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA},
	}
}

// runMatrix executes the figure's scenarios and surfaces the first
// failure as an error (a figure is all-or-nothing).
func runMatrix(specs []scenario.Spec, o Options) (*scenario.Report, error) {
	rep := scenario.Run(specs, o.matrixOptions())
	if f := rep.FirstFailure(); f != nil {
		return nil, fmt.Errorf("harness: scenario %s: %s", f.ID, f.Error)
	}
	return rep, nil
}

// findResult resolves one scenario in a report, with a real error
// instead of a nil dereference when the cell is absent. Figures run
// their own matrices (every spec is guaranteed a result), but the same
// queries also run over externally supplied reports — a single shard or
// a bad merge can lack cells, and the error says which one and why.
// The queries themselves behave identically over merged and unsharded
// reports: MergeReports guarantees ID-sorted results and Find falls
// back to a linear scan for unsorted hand-assembled ones.
func findResult(rep *scenario.Report, id string) (*scenario.Result, error) {
	if res := rep.Find(id); res != nil {
		return res, nil
	}
	return nil, fmt.Errorf("harness: scenario %s missing from report (a single shard? merge every shard report first)", id)
}

// Series is one plotted line (or bar group).
type Series struct {
	Label string
	X     []float64 // message sizes (bytes) or category index
	Y     []float64 // medians
	Err   []float64 // standard deviations (Figure 5)
}

// Figure is one reproduced table/figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// curveSeries converts an engine latency curve into a plotted series.
func curveSeries(label string, c *scenario.Curve) Series {
	s := Series{Label: label}
	if c == nil {
		return s
	}
	for i, sz := range c.Sizes {
		s.X = append(s.X, float64(sz))
		s.Y = append(s.Y, c.MedianUS[i])
		s.Err = append(s.Err, c.StdDevUS[i])
	}
	return s
}

// latencyFigure sweeps one collective over the four stacks: run the four
// scenarios through the matrix engine, then read the aggregated curves.
func latencyFigure(id, title string, prog string, o Options) (*Figure, error) {
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "Message Size (byte)",
		YLabel: "Average Latency (us)",
	}
	specs := fourSpecs(prog)
	rep, err := runMatrix(specs, o)
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		res, err := findResult(rep, sp.ID())
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, curveSeries(sp.LaunchStack().Label(), res.Curve))
	}
	annotateOverheads(fig)
	return fig, nil
}

// annotateOverheads appends the paper's in-text claims: maximum and
// large-message overhead of the Muk+MANA stacks over their native
// baselines.
func annotateOverheads(fig *Figure) {
	pairs := [][2]int{{0, 1}, {2, 3}} // (native, muk+mana) series indices
	for _, p := range pairs {
		nat, wrapped := fig.Series[p[0]], fig.Series[p[1]]
		if len(nat.Y) == 0 || len(nat.Y) != len(wrapped.Y) {
			continue
		}
		maxOv, maxAt := math.NaN(), 0.0
		lastOv := math.NaN()
		for i := range nat.Y {
			ov := stats.OverheadPct(nat.Y[i], wrapped.Y[i])
			if !math.IsNaN(ov) && (math.IsNaN(maxOv) || ov > maxOv) {
				maxOv, maxAt = ov, nat.X[i]
			}
			lastOv = ov
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s vs %s: max overhead %s at %d B; %s at largest size",
			wrapped.Label, nat.Label, stats.FormatPct(maxOv), int(maxAt), stats.FormatPct(lastOv)))
	}
}

// Fig2 reproduces Figure 2: OSU MPI_Alltoall latency.
func Fig2(o Options) (*Figure, error) {
	return latencyFigure("fig2", "OSU Micro-Benchmark: MPI_Alltoall", "osu.alltoall", o)
}

// Fig3 reproduces Figure 3: OSU MPI_Bcast latency.
func Fig3(o Options) (*Figure, error) {
	return latencyFigure("fig3", "OSU Micro-Benchmark: MPI_Bcast", "osu.bcast", o)
}

// Fig4 reproduces Figure 4: OSU MPI_Allreduce latency.
func Fig4(o Options) (*Figure, error) {
	return latencyFigure("fig4", "OSU Micro-Benchmark: MPI_Allreduce", "osu.allreduce", o)
}

// Fig5 reproduces Figure 5: completion times of CoMD and wave_mpi under
// the four stacks (median and standard deviation of Reps runs). All eight
// scenarios go through the engine in one run.
func Fig5(o Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig5",
		Title:  "Runtime performance of real-world MPI applications",
		XLabel: "Application (0=CoMD, 1=wave_mpi)",
		YLabel: "Time (secs)",
	}
	apps := []string{"app.comd", "app.wave"}
	stacks := fourSpecs(apps[0])
	var specs []scenario.Spec
	for _, app := range apps {
		for _, sp := range stacks {
			sp.Program = app
			specs = append(specs, sp)
		}
	}
	rep, err := runMatrix(specs, o)
	if err != nil {
		return nil, err
	}
	for _, sp := range stacks {
		series := Series{Label: sp.LaunchStack().Label()}
		for ai, app := range apps {
			q := sp
			q.Program = app
			res, err := findResult(rep, q.ID())
			if err != nil {
				return nil, err
			}
			series.X = append(series.X, float64(ai))
			series.Y = append(series.Y, res.Time.Median)
			series.Err = append(series.Err, res.Time.StdDev)
		}
		fig.Series = append(fig.Series, series)
	}
	// In-text claims: per-app overhead of the wrapped stacks.
	for _, p := range [][2]int{{0, 1}, {2, 3}} {
		nat, wrapped := fig.Series[p[0]], fig.Series[p[1]]
		for ai, app := range apps {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %s vs %s overhead %s",
				app, wrapped.Label, nat.Label,
				stats.FormatPct(stats.OverheadPct(nat.Y[ai], wrapped.Y[ai]))))
		}
	}
	return fig, nil
}

// Fig6 reproduces the Section 5.3 experiment: launch the alltoall sweep
// under Open MPI (+Muk+MANA), checkpoint it (the engine pins the
// checkpoint to the first safe point), let the original run to
// completion, restart the images under MPICH, and compare all three
// latency curves. It is one cross-restart scenario plus one plain MPICH
// scenario in the matrix.
func Fig6(o Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig6",
		Title:  "Performance After Restart with Different MPI Implementation",
		XLabel: "Message Size (byte)",
		YLabel: "Average Latency (us)",
	}
	pair := scenario.Spec{
		Program: "osu.alltoall",
		Impl:    core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
		RestartImpl: core.ImplMPICH, RestartABI: core.ABIMukautuva,
	}
	plain := scenario.Spec{
		Program: "osu.alltoall",
		Impl:    core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
	}
	rep, err := runMatrix([]scenario.Spec{pair, plain}, o)
	if err != nil {
		return nil, err
	}
	pairRes, err := findResult(rep, pair.ID())
	if err != nil {
		return nil, err
	}
	plainRes, err := findResult(rep, plain.ID())
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series,
		curveSeries("Launch with Open MPI", pairRes.Curve),
		curveSeries("Launch with MPICH", plainRes.Curve),
		curveSeries("Launch with Open MPI, restart with MPICH", pairRes.RestartCurve))

	// The paper's claim: the restarted curve tracks the MPICH launch curve.
	m, rm := fig.Series[1].Y, fig.Series[2].Y
	if len(m) == len(rm) && len(m) > 0 {
		var devs []float64
		for i := range m {
			if d := stats.OverheadPct(m[i], rm[i]); !math.IsNaN(d) {
				devs = append(devs, d)
			}
		}
		if len(devs) > 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"restart-vs-MPICH-launch deviation: median %s, max %s",
				stats.FormatPct(stats.Median(devs)), stats.FormatPct(stats.Max(devs))))
		}
	}
	if len(pairRes.Lineage) > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"checkpoint lineage: %s -> %s at step %d",
			pairRes.Lineage[0].LaunchStack, pairRes.Lineage[0].RestartStack, pairRes.Lineage[0].Step))
	}
	return fig, nil
}

// RecoveryOverhead is the Figure-6 protocol under actual failure, the
// table the paper's title promises: launch app.wave under Open MPI (+
// Mukautuva + MANA) with periodic checkpointing and a seeded rank crash,
// detect the failure, recover automatically under MPICH from the latest
// complete image, and sweep the checkpoint interval. Short intervals
// buy a narrow recomputation window at the cost of more checkpoints;
// past the crash step, the interval loses the whole prefix (scratch
// relaunch). The fault-free cell anchors the overhead claims.
func RecoveryOverhead(o Options) (*Figure, error) {
	fig := &Figure{
		ID:     "recovery",
		Title:  "Time-to-recover vs checkpoint interval (crash under Open MPI, recover under MPICH)",
		XLabel: "Checkpoint interval (steps)",
		YLabel: "Virtual time-to-solution (secs)",
	}
	baseline := scenario.Spec{
		Program: "app.wave",
		Impl:    core.ImplOpenMPI, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
	}
	intervals := []uint64{1, 2, 4}
	specs := []scenario.Spec{baseline}
	for _, iv := range intervals {
		s := baseline
		s.RestartImpl = core.ImplMPICH
		s.RestartABI = core.ABIMukautuva
		s.Fault = faults.KindRankCrash
		s.CkptEvery = iv
		specs = append(specs, s)
	}
	rep, err := runMatrix(specs, o)
	if err != nil {
		return nil, err
	}
	base, err := findResult(rep, baseline.ID())
	if err != nil {
		return nil, err
	}
	recovered := Series{Label: "time-to-solution"}
	lost := Series{Label: "lost work (virt ms)"}
	for i, iv := range intervals {
		res, err := findResult(rep, specs[i+1].ID())
		if err != nil {
			return nil, err
		}
		recovered.X = append(recovered.X, float64(iv))
		recovered.Y = append(recovered.Y, res.Time.Median)
		recovered.Err = append(recovered.Err, res.Time.StdDev)
		var lostMS []float64
		restarts := 0
		for _, fr := range res.Faults {
			lostMS = append(lostMS, fr.LostVirtMS)
			restarts += fr.Restarts
		}
		lost.X = append(lost.X, float64(iv))
		lost.Y = append(lost.Y, stats.Median(lostMS))
		lost.Err = append(lost.Err, stats.StdDev(lostMS))
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"interval %d: completion overhead %s vs fault-free, %.3f ms median lost work, %d restarts over %d reps",
			iv, stats.FormatPct(stats.OverheadPct(base.Time.Median, res.Time.Median)),
			stats.Median(lostMS), restarts, res.Reps))
	}
	fig.Series = append(fig.Series, recovered, lost)
	fig.Notes = append(fig.Notes, fmt.Sprintf("fault-free baseline: %.3f s", base.Time.Median))
	return fig, nil
}

// ShrinkRecovery compares the two halves of fault-tolerant MPI on the
// same seeded rank crash, per implementation: ULFM in-place recovery
// (revoke/shrink/recompute on the survivors, no checkpointer — the
// recovery-mode axis's shrink cells) versus automated
// checkpoint/restart (periodic images, restart from the latest complete
// one), with the fault-free run as the anchor. All stacks bind through
// Mukautuva so the comparison is between recovery models, not binding
// overheads; virtual time-to-solution includes each model's
// recomputation (shrink loses the prefix, restart loses the window
// since the last image) — the trade the paper's title implies but its
// evaluation never measures.
func ShrinkRecovery(o Options) (*Figure, error) {
	fig := &Figure{
		ID:     "shrinkrecovery",
		Title:  "Time-to-recover: ULFM shrink vs checkpoint/restart (seeded rank crash)",
		XLabel: "Implementation (0=MPICH, 1=Open MPI, 2=StdABI)",
		YLabel: "Virtual time-to-solution (secs)",
	}
	impls := []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI}
	var specs []scenario.Spec
	for _, impl := range impls {
		baseline := scenario.Spec{
			Program: "app.wave", Impl: impl, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
		}
		shrink := baseline
		shrink.Fault = faults.KindRankCrash
		shrink.Recovery = scenario.RecoveryShrink
		restart := scenario.Spec{
			Program: "app.wave", Impl: impl, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: impl, RestartABI: core.ABIMukautuva,
			Fault: faults.KindRankCrash,
		}
		specs = append(specs, baseline, shrink, restart)
	}
	rep, err := runMatrix(specs, o)
	if err != nil {
		return nil, err
	}
	series := []Series{
		{Label: "fault-free"},
		{Label: "ULFM shrink (in place)"},
		{Label: "checkpoint/restart"},
	}
	for ii := range impls {
		for si := range series {
			res, err := findResult(rep, specs[ii*3+si].ID())
			if err != nil {
				return nil, err
			}
			series[si].X = append(series[si].X, float64(ii))
			series[si].Y = append(series[si].Y, res.Time.Median)
			series[si].Err = append(series[si].Err, res.Time.StdDev)
		}
		base, shrunk, restarted := series[0].Y[ii], series[1].Y[ii], series[2].Y[ii]
		shrinkRes, err := findResult(rep, specs[ii*3+1].ID())
		if err != nil {
			return nil, err
		}
		survivors := 0
		if len(shrinkRes.Faults) > 0 {
			survivors = shrinkRes.Faults[0].Survivors
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: shrink overhead %s, restart overhead %s vs fault-free (%d survivors continue in place)",
			impls[ii],
			stats.FormatPct(stats.OverheadPct(base, shrunk)),
			stats.FormatPct(stats.OverheadPct(base, restarted)), survivors))
	}
	fig.Series = series
	return fig, nil
}

// RecoveryFrontier puts all three legs of the recovery axis on one
// figure, per implementation, against the same seeded rank crash:
// replication failover (warm shadow pairs — pays a steady-state ~2x
// message overhead up front and recovers for free), ULFM shrink
// (pays nothing up front, recomputes the lost prefix on the
// survivors), and checkpoint/restart (pays periodic image I/O and the
// lost-work window behind the latest image), with the fault-free run
// as the anchor. All stacks bind through Mukautuva so the contrast is
// between recovery cost models, not binding overheads. This is the
// trade FTHP-MPI (arXiv:2504.09989) argues qualitatively; here each
// point is a measured virtual time-to-solution from the matrix engine.
func RecoveryFrontier(o Options) (*Figure, error) {
	fig := &Figure{
		ID:     "recoveryfrontier",
		Title:  "Recovery frontier: replication vs ULFM shrink vs checkpoint/restart (seeded rank crash)",
		XLabel: "Implementation (0=MPICH, 1=Open MPI, 2=StdABI)",
		YLabel: "Virtual time-to-solution (secs)",
	}
	impls := []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI}
	var specs []scenario.Spec
	for _, impl := range impls {
		baseline := scenario.Spec{
			Program: "app.wave", Impl: impl, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
		}
		replicate := baseline
		replicate.Fault = faults.KindRankCrash
		replicate.Recovery = scenario.RecoveryReplicate
		shrink := baseline
		shrink.Fault = faults.KindRankCrash
		shrink.Recovery = scenario.RecoveryShrink
		restart := scenario.Spec{
			Program: "app.wave", Impl: impl, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: impl, RestartABI: core.ABIMukautuva,
			Fault: faults.KindRankCrash,
		}
		specs = append(specs, baseline, replicate, shrink, restart)
	}
	rep, err := runMatrix(specs, o)
	if err != nil {
		return nil, err
	}
	series := []Series{
		{Label: "fault-free"},
		{Label: "replication failover (warm shadows)"},
		{Label: "ULFM shrink (in place)"},
		{Label: "checkpoint/restart"},
	}
	for ii := range impls {
		for si := range series {
			res, err := findResult(rep, specs[ii*4+si].ID())
			if err != nil {
				return nil, err
			}
			series[si].X = append(series[si].X, float64(ii))
			series[si].Y = append(series[si].Y, res.Time.Median)
			series[si].Err = append(series[si].Err, res.Time.StdDev)
		}
		base := series[0].Y[ii]
		replRes, err := findResult(rep, specs[ii*4+1].ID())
		if err != nil {
			return nil, err
		}
		promotions := 0
		if len(replRes.Faults) > 0 {
			promotions = replRes.Faults[0].Promotions
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: replication overhead %s (steady-state, %d promotion), shrink overhead %s, restart overhead %s vs fault-free",
			impls[ii],
			stats.FormatPct(stats.OverheadPct(base, series[1].Y[ii])), promotions,
			stats.FormatPct(stats.OverheadPct(base, series[2].Y[ii])),
			stats.FormatPct(stats.OverheadPct(base, series[3].Y[ii]))))
	}
	fig.Series = series
	return fig, nil
}

// FSGSBase is the ablation the paper's overhead analysis implies: the same
// Muk+MANA alltoall sweep under the old-kernel (syscall) and new-kernel
// (userspace FSGSBASE) cost models — the scenario matrix's kernel axis.
func FSGSBase(o Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fsgsbase",
		Title:  "Ablation: FSGSBASE kernel support vs MANA overhead",
		XLabel: "Message Size (byte)",
		YLabel: "Average Latency (us)",
	}
	specs := []scenario.Spec{
		{Program: "osu.alltoall", Impl: core.ImplMPICH, ABI: core.ABINative, Ckpt: core.CkptNone},
		{Program: "osu.alltoall", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA},
		{Program: "osu.alltoall", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			Kernel: scenario.KernelModern},
	}
	labels := []string{
		"MPICH native",
		"MPICH + Muk + MANA (kernel < 5.9)",
		"MPICH + Muk + MANA (kernel >= 5.9)",
	}
	rep, err := runMatrix(specs, o)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		res, err := findResult(rep, sp.ID())
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, curveSeries(labels[i], res.Curve))
	}
	n, o1, o2 := fig.Series[0], fig.Series[1], fig.Series[2]
	if len(n.Y) > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"1B overhead: old kernel %s, new kernel %s",
			stats.FormatPct(stats.OverheadPct(n.Y[0], o1.Y[0])),
			stats.FormatPct(stats.OverheadPct(n.Y[0], o2.Y[0]))))
	}
	return fig, nil
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %26s", s.Label)
	}
	b.WriteString("\n")
	// Collect the x values of the longest series.
	var xs []float64
	for _, s := range f.Series {
		if len(s.X) > len(xs) {
			xs = s.X
		}
	}
	for i := range xs {
		fmt.Fprintf(&b, "%-14.0f", xs[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				if len(s.Err) == len(s.Y) && s.Err[i] > 0 {
					fmt.Fprintf(&b, "  %17.2f ±%7.2f", s.Y[i], s.Err[i])
				} else {
					fmt.Fprintf(&b, "  %26.2f", s.Y[i])
				}
			} else {
				fmt.Fprintf(&b, "  %26s", "-")
			}
		}
		b.WriteString("\n")
	}
	for _, note := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// WriteCSV emits the figure's data as <id>.csv in dir.
func (f *Figure) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%q,%q", s.Label, s.Label+" stddev")
	}
	b.WriteString("\n")
	var xs []float64
	for _, s := range f.Series {
		if len(s.X) > len(xs) {
			xs = s.X
		}
	}
	for i := range xs {
		fmt.Fprintf(&b, "%g", xs[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				e := 0.0
				if i < len(s.Err) {
					e = s.Err[i]
				}
				fmt.Fprintf(&b, ",%g,%g", s.Y[i], e)
			} else {
				b.WriteString(",,")
			}
		}
		b.WriteString("\n")
	}
	return os.WriteFile(filepath.Join(dir, f.ID+".csv"), []byte(b.String()), 0o644)
}

// All runs every figure at the given scale, returning them in paper order.
func All(o Options) ([]*Figure, error) {
	var figs []*Figure
	for _, step := range []func(Options) (*Figure, error){Fig2, Fig3, Fig4, Fig5, Fig6} {
		fig, err := step(o)
		if err != nil {
			return figs, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// names for figure selection in cmd/paperfigs.
var byName = map[string]func(Options) (*Figure, error){
	"2":                Fig2,
	"3":                Fig3,
	"4":                Fig4,
	"5":                Fig5,
	"6":                Fig6,
	"fsgsbase":         FSGSBase,
	"recovery":         RecoveryOverhead,
	"shrinkrecovery":   ShrinkRecovery,
	"recoveryfrontier": RecoveryFrontier,
}

// ByName runs one figure by its paper number ("2".."6") or ablation name.
func ByName(name string, o Options) (*Figure, error) {
	fn, ok := byName[name]
	if !ok {
		var names []string
		for k := range byName {
			names = append(names, k)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("harness: unknown figure %q (have %v)", name, names)
	}
	return fn(o)
}
