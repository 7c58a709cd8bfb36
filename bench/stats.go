package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so spreads printed here compare with the driver's. Fewer than
// two samples have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 { // the i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median: the
// number the driver holds against a metric's bound.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method, or NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// reportable are the tail percentiles the ledger may print, highest first.
var reportable = []float64{99.9, 99, 95, 90, 75}

// highestPercentile picks the highest tail percentile that still has at
// least ten samples beyond it; with fewer than forty samples none
// qualifies and ok is false (the caller prints the median and the count).
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range reportable {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 99.9 is not exact in binary
			return p, true
		}
	}
	return 0, false
}

// selfTimes attributes wall time to span names: a span's self time is its
// duration minus the part of its interval that its child spans cover.
// Children may overlap each other (two workers under one slice span), so
// the covered part is the length of the union of their intervals, clipped
// to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := lo
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < cur {
			start = cur
		}
		if end > hi {
			end = hi
		}
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}
