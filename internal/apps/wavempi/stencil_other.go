//go:build !amd64

package wavempi

// stencil is the interior update of a Step: see stencilLoop.
func stencil(out, u []float64, alpha float64) { stencilLoop(out, u, alpha) }
