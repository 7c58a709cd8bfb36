package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of three = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if s := relSpread(xs); !near(s, 1) {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := relSpread([]float64{7}); s != 0 {
		t.Errorf("relSpread of one sample = %v, want 0", s)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{7, 0, false}, {39, 0, false}, {40, 75, true}, {100, 90, true}, {252, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, ok := highestPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v, want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "slice", Start: 0, End: 100},
		// Two workers' cells overlap on [30, 50]: the union covers [10, 80].
		{ID: 1, Parent: 0, Name: "cell", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "cell", Start: 30, End: 80},
		{ID: 3, Parent: 1, Name: "io", Start: 20, End: 30},
		// A child that outlives its parent is clipped to it.
		{ID: 4, Parent: 2, Name: "io", Start: 70, End: 90},
	}
	self := selfTimes(spans)
	if self["slice"] != 30 {
		t.Errorf("slice self = %d, want 100 - |[10,80]| = 30", self["slice"])
	}
	if self["cell"] != 30+40 {
		t.Errorf("cell self = %d, want (40-10) + (50-10) = 70", self["cell"])
	}
	if self["io"] != 10+20 {
		t.Errorf("io self = %d, want 30", self["io"])
	}
}

func TestDealCellsIsBalanced(t *testing.T) {
	inst, err := setupMatrixCold(config{seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	parts := inst.(*matrixCold).parts
	if len(parts) != coldSlices {
		t.Fatalf("%d slices, want %d", len(parts), coldSlices)
	}
	for i, p := range parts {
		count := make(map[string]int)
		for _, s := range p {
			count[cellClass(s)]++
		}
		if len(p) != 42 || count["crash_restart"] != 14 || count["restart"] != 10 || count["plain"] != 9 ||
			count["shrink"] != 3 || count["replicate"] != 3 || count["nic_degrade"] != 3 {
			t.Errorf("slice %d: %d cells, classes %v; want 42 cells: 14 crash_restart, 10 restart, 9 plain, 3 each of the rest", i, len(p), count)
		}
		for _, class := range []string{"crash_restart", "restart"} {
			comd := 0
			for _, s := range p {
				if cellClass(s) == class && s.Program == "app.comd" {
					comd++
				}
			}
			if comd*2 != count[class] {
				t.Errorf("slice %d: %d of %d %s cells are app.comd, want half", i, comd, count[class], class)
			}
		}
	}
}
