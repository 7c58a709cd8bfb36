package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny returns a minutes-not-hours configuration for CI.
func tiny() Options {
	return Options{Nodes: 2, RanksPerNode: 2, Reps: 1, MaxSize: 256, Iters: 2, Warmup: 1, AppScale: 0.02}
}

// A figure re-run with a warm cache serves every scenario from disk and
// produces the identical figure — the incremental layer under the
// harness queries.
func TestFigureServedFromCache(t *testing.T) {
	o := tiny()
	o.Cache = t.TempDir()
	cold, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Series) != len(cold.Series) {
		t.Fatalf("warm figure has %d series, cold %d", len(warm.Series), len(cold.Series))
	}
	for i := range cold.Series {
		c, w := cold.Series[i], warm.Series[i]
		if len(c.Y) != len(w.Y) {
			t.Fatalf("series %q resized across cache", c.Label)
		}
		for j := range c.Y {
			// Bit-identical, not approximately equal: the warm run reads
			// the cold run's stored results rather than re-measuring.
			if c.Y[j] != w.Y[j] {
				t.Fatalf("series %q point %d: cold %v, warm %v", c.Label, j, c.Y[j], w.Y[j])
			}
		}
	}
}

func TestLatencyFigureShape(t *testing.T) {
	fig, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig2" || len(fig.Series) != 4 {
		t.Fatalf("fig = %s with %d series", fig.ID, len(fig.Series))
	}
	wantLabels := []string{
		"MPICH", "MPICH + Mukautuva + MANA", "Open MPI", "Open MPI + Mukautuva + MANA",
	}
	for i, s := range fig.Series {
		if s.Label != wantLabels[i] {
			t.Fatalf("series %d label %q, want %q", i, s.Label, wantLabels[i])
		}
		if len(s.X) != 9 { // 1..256 in powers of two
			t.Fatalf("series %q has %d points, want 9", s.Label, len(s.X))
		}
		for j, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q point %d latency %v", s.Label, j, y)
			}
		}
	}
	if len(fig.Notes) == 0 {
		t.Fatal("no overhead notes")
	}
	if fig.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 { // CoMD + wave
			t.Fatalf("series %q has %d apps", s.Label, len(s.Y))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q has non-positive time", s.Label)
			}
		}
	}
}

func TestFig6CrossRestartSeries(t *testing.T) {
	fig, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("%d series, want 3", len(fig.Series))
	}
	if !strings.Contains(fig.Series[2].Label, "restart") {
		t.Fatalf("third series label %q", fig.Series[2].Label)
	}
	// The restarted sweep covers the full size axis.
	if len(fig.Series[2].Y) != len(fig.Series[1].Y) {
		t.Fatalf("restart series has %d points, MPICH launch %d",
			len(fig.Series[2].Y), len(fig.Series[1].Y))
	}
}

// TestFSGSBaseAblation orders virtual times across cells, which are exact
// (see TestRecoveryOverheadTable).
func TestFSGSBaseAblation(t *testing.T) {
	o := tiny()
	fig, err := FSGSBase(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("%d series", len(fig.Series))
	}
	// New-kernel overhead must be below old-kernel overhead at 1 B.
	native, old, modern := fig.Series[0].Y[0], fig.Series[1].Y[0], fig.Series[2].Y[0]
	if !(old > native) {
		t.Fatalf("old-kernel stack (%v) not slower than native (%v)", old, native)
	}
	if modern >= old {
		t.Fatalf("5.9+ kernel (%v) not faster than pre-5.9 (%v)", modern, old)
	}
}

// TestRecoveryOverheadTable compares virtual times across cells; runs are
// deterministic, so differences far smaller than any schedule jitter would
// be are safe to assert.
func TestRecoveryOverheadTable(t *testing.T) {
	o := tiny()
	fig, err := RecoveryOverhead(o)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "recovery" || len(fig.Series) != 2 {
		t.Fatalf("fig %s with %d series", fig.ID, len(fig.Series))
	}
	recovered, lost := fig.Series[0], fig.Series[1]
	if len(recovered.Y) != 3 || len(lost.Y) != 3 {
		t.Fatalf("series lengths %d/%d, want 3 intervals", len(recovered.Y), len(lost.Y))
	}
	for i, y := range recovered.Y {
		if y <= 0 {
			t.Fatalf("interval %g: non-positive recovered completion %v", recovered.X[i], y)
		}
	}
	// Lost work can only grow (weakly) with the checkpoint interval:
	// fewer images, wider recomputation window.
	for i := 1; i < len(lost.Y); i++ {
		if lost.Y[i] < lost.Y[i-1] {
			t.Fatalf("lost work shrank with a longer interval: %v", lost.Y)
		}
	}
	if len(fig.Notes) < 4 {
		t.Fatalf("notes missing: %v", fig.Notes)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("17", tiny()); err == nil {
		t.Fatal("unknown figure accepted")
	}
	fig, err := ByName("4", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig4" {
		t.Fatalf("ID = %s", fig.ID)
	}
}

func TestWriteCSV(t *testing.T) {
	fig := &Figure{
		ID:     "test",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}, Err: []float64{0.1, 0.2}}},
	}
	dir := t.TempDir()
	if err := fig.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "test.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw)
	if !strings.Contains(got, `"a"`) || !strings.Contains(got, "1,3,0.1") {
		t.Fatalf("csv content:\n%s", got)
	}
}

func TestOptionsHelpers(t *testing.T) {
	full := Full()
	if full.Nodes*full.RanksPerNode != 48 || full.Reps != 5 || full.MaxSize != 1<<18 {
		t.Fatalf("Full() changed: %+v", full)
	}
	q := Quick()
	if q.ranks() >= full.ranks() {
		t.Fatal("Quick not smaller than Full")
	}
	mo := q.matrixOptions()
	if mo.Nodes != q.Nodes || mo.Reps != q.Reps || mo.MaxSize != q.MaxSize {
		t.Fatalf("matrixOptions dropped fields: %+v", mo)
	}
}

// TestShrinkRecoveryFigure runs the shrink-vs-restart comparison at
// tiny scale: three series (fault-free, shrink, restart) over three
// implementations, each with a positive time-to-solution and a note
// per implementation. It orders virtual times across cells (see
// TestRecoveryOverheadTable).
func TestShrinkRecoveryFigure(t *testing.T) {
	o := tiny()
	fig, err := ShrinkRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "shrinkrecovery" || len(fig.Series) != 3 {
		t.Fatalf("figure shape: id=%s series=%d", fig.ID, len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 3 {
			t.Fatalf("series %q has %d points, want 3 (one per implementation)", s.Label, len(s.Y))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %q impl %d: non-positive time %v", s.Label, i, y)
			}
		}
	}
	// Both recovery modes must cost at least the fault-free run: each
	// loses work to the crash.
	for i := 0; i < 3; i++ {
		if fig.Series[1].Y[i] < fig.Series[0].Y[i] || fig.Series[2].Y[i] < fig.Series[0].Y[i] {
			t.Errorf("impl %d: recovery beat the fault-free run (%v / %v vs %v)",
				i, fig.Series[1].Y[i], fig.Series[2].Y[i], fig.Series[0].Y[i])
		}
	}
	if len(fig.Notes) != 3 {
		t.Fatalf("notes = %v", fig.Notes)
	}
}

// TestRecoveryFrontierFigure runs the three-way recovery comparison at
// tiny scale: four series (fault-free, replication, shrink, restart)
// over three implementations. Replication's point must sit above the
// fault-free anchor — the steady-state duplicate-traffic overhead is
// ~2x, far outside the engine's virtual-time noise. The two recomputing
// modes are NOT ordered against the anchor here: at tiny scale a crash
// near the first safe point costs less than the cross-cell jitter
// (each cell derives its own seeds), so their relation to the baseline
// is the figure's finding, not a test invariant.
func TestRecoveryFrontierFigure(t *testing.T) {
	fig, err := RecoveryFrontier(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "recoveryfrontier" || len(fig.Series) != 4 {
		t.Fatalf("figure shape: id=%s series=%d", fig.ID, len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 3 {
			t.Fatalf("series %q has %d points, want 3 (one per implementation)", s.Label, len(s.Y))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %q impl %d: non-positive time %v", s.Label, i, y)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if repl, base := fig.Series[1].Y[i], fig.Series[0].Y[i]; repl < base {
			t.Errorf("impl %d: %q beat the fault-free run (%v vs %v)",
				i, fig.Series[1].Label, repl, base)
		}
	}
	if len(fig.Notes) != 3 {
		t.Fatalf("notes = %v", fig.Notes)
	}
}
