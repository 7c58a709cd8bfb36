package wavempi

// update is one point's next time level: 2c - old + α(p - 2c + n), from
// its previous level old and the current levels p, c, n of its left
// neighbor, itself and its right neighbor.
//
// The explicit float64 conversions round each product before it is added:
// without them an architecture with fused multiply-add (arm64, ppc64le,
// s390x) may fuse one and get other bits than amd64. 2*c is exact, so the
// amd64 kernel computes it as c+c.
func update(old, p, c, n, alpha float64) float64 {
	c2 := float64(2 * c)
	return c2 - old + float64(alpha*(p-c2+n))
}

// stencilLoop is the interior update of a Step, one point at a time:
// out[i] is the point whose neighbors are u[i], u[i+1] and u[i+2], and it
// holds that point's previous level on entry and its next level on return
// (len(u) == len(out)+2). It is the reference the amd64 kernel is held to
// and the kernel itself on every other architecture.
func stencilLoop(out, u []float64, alpha float64) {
	// Three equal-length views of u let the compiler prove every index in
	// range and drop the bounds checks.
	prev, cur, next := u[:len(out)], u[1:len(out)+1], u[2:len(out)+2]
	for i := range out {
		out[i] = update(out[i], prev[i], cur[i], next[i], alpha)
	}
}
