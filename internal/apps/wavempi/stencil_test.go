package wavempi

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specials are the values whose bits an IEEE kernel can get wrong without
// a normal input noticing: NaNs with distinct payloads and signs (when two
// meet in one operation the result carries one of them), infinities,
// subnormals, both zeros, and numbers near overflow and underflow.
var specials = []float64{
	math.NaN(),
	math.Float64frombits(0xfff8_0000_0000_0000), // the NaN x86 makes, negative
	math.Float64frombits(0x7ff8_dead_beef_0001), // a quiet NaN with a payload
	math.Float64frombits(0x7ff0_0000_0000_0001), // a signaling NaN
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), // the largest subnormal
	0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64 / 3,
	1, -0.75, 1e-300,
}

// sameBits reports the first index at which got and want differ in their
// bits, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkStencil runs the kernel and the loop over copies of out and requires
// the same bits from both, and u untouched.
func checkStencil(t *testing.T, out, u []float64, alpha float64) {
	t.Helper()
	got, want := append([]float64(nil), out...), append([]float64(nil), out...)
	uBefore := append([]float64(nil), u...)
	stencil(got, u, alpha)
	stencilLoop(want, u, alpha)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("len %d, alpha %v: point %d (old %v, p %v, c %v, n %v) is %v (%#x), the loop gives %v (%#x)",
			len(out), alpha, i, out[i], u[i], u[i+1], u[i+2],
			got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
	if i := sameBits(u, uBefore); i >= 0 {
		t.Fatalf("len %d: the kernel wrote u[%d]", len(out), i)
	}
}

// The kernel gives the loop's bits for every combination of special
// values as the previous level and the three neighbors, in either lane
// of the packed loop and in the scalar tail, under ordinary and special
// alphas.
func TestStencilMatchesLoop(t *testing.T) {
	alphas := []float64{0.25, 17.6, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	for _, alpha := range alphas {
		for _, p := range specials {
			for _, c := range specials {
				for _, n := range specials {
					for _, old := range specials {
						// Lane 0, lane 1, then the one-point tail.
						checkStencil(t, []float64{old, 1}, []float64{p, c, n, -1}, alpha)
						checkStencil(t, []float64{2, old}, []float64{3, p, c, n}, alpha)
						checkStencil(t, []float64{old}, []float64{p, c, n}, alpha)
					}
				}
			}
		}
	}

	// Every length from 0 to 130 and the quick matrix's interior (83,886
	// points over 8 ranks), at every start offset modulo the 16 bytes an
	// aligned pair spans, over normal values with specials mixed in. The
	// kernel writes nothing outside out.
	rng := rand.New(rand.NewSource(1))
	fill := func(s []float64) {
		for i := range s {
			if rng.Intn(8) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			} else {
				s[i] = rng.NormFloat64()
			}
		}
	}
	lengths := []int{83886/8 - 2, 83886/8 - 1}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	const guard = 4
	for _, n := range lengths {
		for outOff := 0; outOff < 2; outOff++ {
			for uOff := 0; uOff < 2; uOff++ {
				outBuf := make([]float64, outOff+n+guard)
				uBuf := make([]float64, uOff+n+2)
				fill(outBuf)
				fill(uBuf)
				out, u := outBuf[outOff:outOff+n], uBuf[uOff:]
				checkStencil(t, out, u, 0.25)
				before := append([]float64(nil), outBuf...)
				stencil(out, u, 0.25)
				if i := sameBits(outBuf[:outOff], before[:outOff]); i >= 0 {
					t.Fatalf("len %d at offset %d: the kernel wrote before out", n, outOff)
				}
				if i := sameBits(outBuf[outOff+n:], before[outOff+n:]); i >= 0 {
					t.Fatalf("len %d at offset %d: the kernel wrote %d past out", n, outOff, i)
				}
			}
		}
	}
}

// A kernel handed slices whose lengths do not match refuses them rather
// than reading past u.
func TestStencilRefusesMismatchedLengths(t *testing.T) {
	for _, c := range []struct{ out, u int }{{4, 5}, {4, 7}, {0, 0}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stencil over %d points of %d accepted", c.out, c.u)
				}
			}()
			stencil(make([]float64, c.out), make([]float64, c.u), 1)
		}()
	}
}

// FuzzStencilMatchesLoop reads raw bytes as float64 bits, so any NaN
// payload, subnormal or infinity can land in any lane: the first
// len/2+1 values are u, the rest the previous levels.
func FuzzStencilMatchesLoop(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8), 0.25)
	f.Add(seed(specials...), 17.6)
	f.Add(seed(append(append([]float64(nil), specials...), specials[3:]...)...), math.NaN())
	f.Fuzz(func(t *testing.T, raw []byte, alpha float64) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if len(vals) < 2 {
			return
		}
		m := (len(vals) - 2) / 2
		checkStencil(t, vals[m+2:2*m+2], vals[:m+2], alpha)
	})
}
