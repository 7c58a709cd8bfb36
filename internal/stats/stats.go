// Package stats provides the small statistical toolkit the experiment
// protocol of Section 5 needs: the paper reports medians of 5 repetitions
// for the latency sweeps of Figures 2-4 and 6, adds standard deviations
// for Figure 5's error bars, and quotes relative overheads in its in-text
// claims (OverheadPct). Both internal/harness and the internal/scenario
// matrix engine aggregate repetitions through Summarize.
//
// Stats sits beside the README's layer diagram, not in it: the figure
// harness and the scenario engine aggregate repetitions through it, and
// the stack column itself never calls it.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the middle pair for even
// lengths). It panics on empty input, which is always a harness bug.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	lo, hi := s[mid-1], s[mid]
	// Halved-sum form: lo+(hi-lo)/2 overflows when lo and hi have opposite
	// signs and huge magnitudes, (lo+hi)/2 when they share a sign; halving
	// each term first overflows in neither case and stays within [lo, hi].
	return lo/2 + hi/2
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// for samples smaller than 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min and Max return the extrema.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: min of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: max of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// OverheadPct returns the relative overhead of measured vs baseline in
// percent: 100*(measured-baseline)/baseline. A zero (missing) baseline
// yields NaN: "overhead relative to nothing" is undefined, and returning
// 0 would be indistinguishable from a measured perfect score. Render
// with FormatPct, which spells the NaN as "n/a".
func OverheadPct(baseline, measured float64) float64 {
	if baseline == 0 {
		return math.NaN()
	}
	return 100 * (measured - baseline) / baseline
}

// FormatPct renders an overhead percentage for tables and notes, "n/a"
// when the value is undefined (NaN).
func FormatPct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", v)
}

// Summary aggregates a repeated measurement.
type Summary struct {
	Median, Mean, StdDev, Min, Max float64
	N                              int
}

// Summarize computes all the summary statistics at once.
func Summarize(xs []float64) Summary {
	return Summary{
		Median: Median(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		N:      len(xs),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("median=%.3f mean=%.3f sd=%.3f n=%d", s.Median, s.Mean, s.StdDev, s.N)
}
