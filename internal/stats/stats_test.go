package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 3}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{5, 1, 3}
	Median(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
	if StdDev([]float64{1}) != 0 {
		t.Fatal("StdDev of singleton must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestOverheadPct(t *testing.T) {
	if got := OverheadPct(100, 110); got != 10 {
		t.Fatalf("OverheadPct = %v, want 10", got)
	}
	// A missing baseline must be visibly undefined, not a fake perfect
	// score: 0% would read as "no overhead".
	if got := OverheadPct(0, 10); !math.IsNaN(got) {
		t.Fatalf("OverheadPct(0, 10) = %v, want NaN", got)
	}
	if got := OverheadPct(200, 190); got != -5 {
		t.Fatalf("negative overhead = %v, want -5", got)
	}
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(12.34); got != "12.3%" {
		t.Fatalf("FormatPct(12.34) = %q", got)
	}
	if got := FormatPct(OverheadPct(0, 10)); got != "n/a" {
		t.Fatalf("FormatPct(NaN) = %q, want n/a", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Median != 3 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"median": func() { Median(nil) },
		"mean":   func() { Mean(nil) },
		"min":    func() { Min(nil) },
		"max":    func() { Max(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: median lies between min and max, and is order-invariant.
func TestMedianProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		if m < Min(xs) || m > Max(xs) {
			return false
		}
		shuffled := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(shuffled)))
		return Median(shuffled) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
