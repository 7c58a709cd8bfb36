package wavempi

// stencil is the interior update of a Step: stencilLoop's arithmetic, two
// points at a time in SSE2 registers (stencil_amd64.s), which every amd64
// CPU has. The kernel runs the loop's IEEE operations in its order, with
// the same operand of each commutative one as the destination, so its
// bits, NaN payloads included, are the loop's.
func stencil(out, u []float64, alpha float64) {
	if len(u) != len(out)+2 {
		panic("wavempi: stencil needs two more points than it writes")
	}
	stencilSSE2(out, u, alpha)
}

// stencilSSE2 is stencil without the length check; it reads u[:len(out)+2]
// and writes out[:len(out)].
//
//go:noescape
func stencilSSE2(out, u []float64, alpha float64)
