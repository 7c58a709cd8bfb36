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
// failure as an error (a figure is all-or-nothing). A zero Timeout
// becomes ten minutes: a figure never runs without a deadlock bound.
func runMatrix(specs []scenario.Spec, o scenario.Options) (*scenario.Report, error) {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Minute
	}
	rep := scenario.Run(specs, o)
	if f := rep.FirstFailure(); f != nil {
		return nil, fmt.Errorf("harness: scenario %s: %s", f.ID, f.Error)
	}
	return rep, nil
}

// findResult resolves one scenario in a report, with a real error
// instead of a nil dereference when the cell is absent. Figures run
// their own matrices (every spec is guaranteed a result), but the same
// queries also run over externally supplied reports — one filtered with
// paperfigs -cells can lack cells, and the error says which one.
func findResult(rep *scenario.Report, id string) (*scenario.Result, error) {
	if res := rep.Find(id); res != nil {
		return res, nil
	}
	return nil, fmt.Errorf("harness: scenario %s missing from report", id)
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
func latencyFigure(id, title string, prog string, o scenario.Options) (*Figure, error) {
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
func Fig2(o scenario.Options) (*Figure, error) {
	return latencyFigure("fig2", "OSU Micro-Benchmark: MPI_Alltoall", "osu.alltoall", o)
}

// Fig3 reproduces Figure 3: OSU MPI_Bcast latency.
func Fig3(o scenario.Options) (*Figure, error) {
	return latencyFigure("fig3", "OSU Micro-Benchmark: MPI_Bcast", "osu.bcast", o)
}

// Fig4 reproduces Figure 4: OSU MPI_Allreduce latency.
func Fig4(o scenario.Options) (*Figure, error) {
	return latencyFigure("fig4", "OSU Micro-Benchmark: MPI_Allreduce", "osu.allreduce", o)
}

// Fig5 reproduces Figure 5: completion times of CoMD and wave_mpi under
// the four stacks (median and standard deviation of Reps runs). All eight
// scenarios go through the engine in one run.
func Fig5(o scenario.Options) (*Figure, error) {
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
func Fig6(o scenario.Options) (*Figure, error) {
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
func RecoveryOverhead(o scenario.Options) (*Figure, error) {
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

// recoveryColumns runs the recovery figures' columns per implementation
// against the same seeded rank crash, every stack bound through
// Mukautuva so the contrast is between recovery cost models, not binding
// overheads: the fault-free run, the crash survived in place under each
// of modes, and checkpoint/restart (periodic images, restart from the
// latest complete one). Series c, labelled labels[c], holds column c's
// virtual time-to-solution per implementation; res[i][c] is
// implementation i's column c.
func recoveryColumns(o scenario.Options, labels []string, modes ...string) (impls []core.Impl, series []Series, res [][]*scenario.Result, err error) {
	impls = core.Impls()
	var specs []scenario.Spec
	for _, impl := range impls {
		baseline := scenario.Spec{
			Program: "app.wave", Impl: impl, ABI: core.ABIMukautuva, Ckpt: core.CkptNone,
		}
		specs = append(specs, baseline)
		for _, mode := range modes {
			s := baseline
			s.Fault, s.Recovery = faults.KindRankCrash, mode
			specs = append(specs, s)
		}
		specs = append(specs, scenario.Spec{
			Program: "app.wave", Impl: impl, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA,
			RestartImpl: impl, RestartABI: core.ABIMukautuva,
			Fault: faults.KindRankCrash,
		})
	}
	rep, err := runMatrix(specs, o)
	if err != nil {
		return nil, nil, nil, err
	}
	series = make([]Series, len(labels))
	res = make([][]*scenario.Result, len(impls))
	for ii := range impls {
		for si := range series {
			r, err := findResult(rep, specs[ii*len(series)+si].ID())
			if err != nil {
				return nil, nil, nil, err
			}
			series[si].Label = labels[si]
			series[si].X = append(series[si].X, float64(ii))
			series[si].Y = append(series[si].Y, r.Time.Median)
			series[si].Err = append(series[si].Err, r.Time.StdDev)
			res[ii] = append(res[ii], r)
		}
	}
	return impls, series, res, nil
}

// implAxis labels a per-implementation category axis.
func implAxis(impls []core.Impl) string {
	names := make([]string, len(impls))
	for i, impl := range impls {
		names[i] = fmt.Sprintf("%d=%s", i, core.Stack{Impl: impl}.Label())
	}
	return "Implementation (" + strings.Join(names, ", ") + ")"
}

// ShrinkRecovery compares the two halves of fault-tolerant MPI on the
// same seeded rank crash, per implementation: ULFM in-place recovery
// (revoke/shrink/recompute on the survivors, no checkpointer — the
// recovery-mode axis's shrink cells) versus automated
// checkpoint/restart, with the fault-free run as the anchor (see
// recoveryColumns). Virtual time-to-solution includes each model's
// recomputation (shrink loses the prefix, restart loses the window
// since the last image) — the trade the paper's title implies but its
// evaluation never measures.
func ShrinkRecovery(o scenario.Options) (*Figure, error) {
	impls, series, res, err := recoveryColumns(o,
		[]string{"fault-free", "ULFM shrink (in place)", "checkpoint/restart"}, scenario.RecoveryShrink)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "shrinkrecovery",
		Title:  "Time-to-recover: ULFM shrink vs checkpoint/restart (seeded rank crash)",
		XLabel: implAxis(impls),
		YLabel: "Virtual time-to-solution (secs)",
		Series: series,
	}
	for ii, impl := range impls {
		base, shrunk, restarted := series[0].Y[ii], series[1].Y[ii], series[2].Y[ii]
		survivors := 0
		if f := res[ii][1].Faults; len(f) > 0 {
			survivors = f[0].Survivors
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: shrink overhead %s, restart overhead %s vs fault-free (%d survivors continue in place)",
			impl,
			stats.FormatPct(stats.OverheadPct(base, shrunk)),
			stats.FormatPct(stats.OverheadPct(base, restarted)), survivors))
	}
	return fig, nil
}

// RecoveryFrontier puts all three legs of the recovery axis on one
// figure, per implementation, against the same seeded rank crash:
// replication failover (warm shadow pairs — pays a steady-state ~2x
// message overhead up front and recovers for free), ULFM shrink
// (pays nothing up front, recomputes the lost prefix on the
// survivors), and checkpoint/restart (pays periodic image I/O and the
// lost-work window behind the latest image), with the fault-free run
// as the anchor (see recoveryColumns). This is the trade FTHP-MPI
// (arXiv:2504.09989) argues qualitatively; here each point is a
// measured virtual time-to-solution from the matrix engine.
func RecoveryFrontier(o scenario.Options) (*Figure, error) {
	impls, series, res, err := recoveryColumns(o,
		[]string{"fault-free", "replication failover (warm shadows)", "ULFM shrink (in place)", "checkpoint/restart"},
		scenario.RecoveryReplicate, scenario.RecoveryShrink)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "recoveryfrontier",
		Title:  "Recovery frontier: replication vs ULFM shrink vs checkpoint/restart (seeded rank crash)",
		XLabel: implAxis(impls),
		YLabel: "Virtual time-to-solution (secs)",
		Series: series,
	}
	for ii, impl := range impls {
		base := series[0].Y[ii]
		promotions := 0
		if f := res[ii][1].Faults; len(f) > 0 {
			promotions = f[0].Promotions
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: replication overhead %s (steady-state, %d promotion), shrink overhead %s, restart overhead %s vs fault-free",
			impl,
			stats.FormatPct(stats.OverheadPct(base, series[1].Y[ii])), promotions,
			stats.FormatPct(stats.OverheadPct(base, series[2].Y[ii])),
			stats.FormatPct(stats.OverheadPct(base, series[3].Y[ii]))))
	}
	return fig, nil
}

// FSGSBase is the ablation the paper's overhead analysis implies: the same
// Muk+MANA alltoall sweep under the old-kernel (syscall) and new-kernel
// (userspace FSGSBASE) cost models — the scenario matrix's kernel axis.
func FSGSBase(o scenario.Options) (*Figure, error) {
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

// names for figure selection in cmd/paperfigs.
var byName = map[string]func(scenario.Options) (*Figure, error){
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
func ByName(name string, o scenario.Options) (*Figure, error) {
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
