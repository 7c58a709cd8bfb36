package ops

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// applyOracle is the element-at-a-time reference Apply's typed kernels
// must match bit for bit: one applyOne per element, dispatching on kind
// and then on op every time. It was the production path before the
// kernels and survives only here.
func applyOracle(op Op, k types.Kind, acc, in []byte, count int) {
	sz := k.Size()
	for i := 0; i < count; i++ {
		applyOne(op, k, acc[i*sz:(i+1)*sz], in[i*sz:(i+1)*sz])
	}
}

func applyOne(op Op, k types.Kind, a, b []byte) {
	switch k {
	case types.KindInt8:
		put8i(a, oracleInt(op, int64(int8(a[0])), int64(int8(b[0]))))
	case types.KindInt16:
		v := oracleInt(op, int64(int16(le.Uint16(a))), int64(int16(le.Uint16(b))))
		le.PutUint16(a, uint16(v))
	case types.KindInt32:
		v := oracleInt(op, int64(int32(le.Uint32(a))), int64(int32(le.Uint32(b))))
		le.PutUint32(a, uint32(v))
	case types.KindInt64:
		v := oracleInt(op, int64(le.Uint64(a)), int64(le.Uint64(b)))
		le.PutUint64(a, uint64(v))
	case types.KindByte, types.KindUint8:
		a[0] = byte(oracleUint(op, uint64(a[0]), uint64(b[0])))
	case types.KindUint16:
		le.PutUint16(a, uint16(oracleUint(op, uint64(le.Uint16(a)), uint64(le.Uint16(b)))))
	case types.KindUint32:
		le.PutUint32(a, uint32(oracleUint(op, uint64(le.Uint32(a)), uint64(le.Uint32(b)))))
	case types.KindUint64:
		le.PutUint64(a, oracleUint(op, le.Uint64(a), le.Uint64(b)))
	case types.KindFloat32:
		le.PutUint32(a, math.Float32bits(float32(oracleFloat(op,
			float64(math.Float32frombits(le.Uint32(a))), float64(math.Float32frombits(le.Uint32(b)))))))
	case types.KindFloat64:
		le.PutUint64(a, math.Float64bits(oracleFloat(op,
			math.Float64frombits(le.Uint64(a)), math.Float64frombits(le.Uint64(b)))))
	case types.KindComplex64:
		ar, ai := math.Float32frombits(le.Uint32(a)), math.Float32frombits(le.Uint32(a[4:]))
		br, bi := math.Float32frombits(le.Uint32(b)), math.Float32frombits(le.Uint32(b[4:]))
		cr, ci := oracleComplex(op, complex(float64(ar), float64(ai)), complex(float64(br), float64(bi)))
		le.PutUint32(a, math.Float32bits(float32(cr)))
		le.PutUint32(a[4:], math.Float32bits(float32(ci)))
	case types.KindComplex128:
		ar, ai := math.Float64frombits(le.Uint64(a)), math.Float64frombits(le.Uint64(a[8:]))
		br, bi := math.Float64frombits(le.Uint64(b)), math.Float64frombits(le.Uint64(b[8:]))
		cr, ci := oracleComplex(op, complex(ar, ai), complex(br, bi))
		le.PutUint64(a, math.Float64bits(cr))
		le.PutUint64(a[8:], math.Float64bits(ci))
	case types.KindBool:
		av, bv := a[0] != 0, b[0] != 0
		var r bool
		switch op {
		case OpLAnd:
			r = av && bv
		case OpLOr:
			r = av || bv
		case OpLXor:
			r = av != bv
		}
		a[0] = 0
		if r {
			a[0] = 1
		}
	case types.KindFloat32Int32:
		av := float64(math.Float32frombits(le.Uint32(a)))
		bv := float64(math.Float32frombits(le.Uint32(b)))
		if pairTakeB(op, av, bv, int32(le.Uint32(a[4:])), int32(le.Uint32(b[4:]))) {
			copy(a, b)
		}
	case types.KindFloat64Int32:
		av := math.Float64frombits(le.Uint64(a))
		bv := math.Float64frombits(le.Uint64(b))
		if pairTakeB(op, av, bv, int32(le.Uint32(a[8:])), int32(le.Uint32(b[8:]))) {
			copy(a, b)
		}
	case types.KindInt32Int32:
		av := float64(int32(le.Uint32(a)))
		bv := float64(int32(le.Uint32(b)))
		if pairTakeB(op, av, bv, int32(le.Uint32(a[4:])), int32(le.Uint32(b[4:]))) {
			copy(a, b)
		}
	}
}

func put8i(a []byte, v int64) { a[0] = byte(int8(v)) }

func oracleInt(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		return max(a, b)
	case OpMin:
		return min(a, b)
	case OpLAnd:
		return oracleB2i(a != 0 && b != 0)
	case OpLOr:
		return oracleB2i(a != 0 || b != 0)
	case OpLXor:
		return oracleB2i((a != 0) != (b != 0))
	case OpBAnd:
		return a & b
	case OpBOr:
		return a | b
	case OpBXor:
		return a ^ b
	}
	return a
}

func oracleUint(op Op, a, b uint64) uint64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		return max(a, b)
	case OpMin:
		return min(a, b)
	case OpLAnd:
		return uint64(oracleB2i(a != 0 && b != 0))
	case OpLOr:
		return uint64(oracleB2i(a != 0 || b != 0))
	case OpLXor:
		return uint64(oracleB2i((a != 0) != (b != 0)))
	case OpBAnd:
		return a & b
	case OpBOr:
		return a | b
	case OpBXor:
		return a ^ b
	}
	return a
}

func oracleFloat(op Op, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	return a
}

func oracleComplex(op Op, a, b complex128) (float64, float64) {
	var c complex128
	switch op {
	case OpSum:
		c = a + b
	case OpProd:
		c = a * b
	default:
		c = a
	}
	return real(c), imag(c)
}

// pairTakeB decides whether the (value, index) pair b replaces a under
// MAXLOC/MINLOC: ties are broken by the smaller index, per the standard.
func pairTakeB(op Op, av, bv float64, ai, bi int32) bool {
	switch op {
	case OpMaxLoc:
		if bv > av {
			return true
		}
		return bv == av && bi < ai
	case OpMinLoc:
		if bv < av {
			return true
		}
		return bv == av && bi < ai
	}
	return false
}

func oracleB2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// specials returns the encodings of the elements of kind k the kernels
// are most likely to get wrong: NaNs of both kinds and differing
// payloads, signed zeros, infinities, the integer extremes, and pairs
// whose values tie.
func specials(k types.Kind) [][]byte {
	u := func(sz int, vs ...uint64) [][]byte {
		out := make([][]byte, len(vs))
		for i, v := range vs {
			var b [8]byte
			le.PutUint64(b[:], v)
			out[i] = b[:sz:sz]
		}
		return out
	}
	f64 := []uint64{0, 1 << 63, math.Float64bits(1.5), math.Float64bits(-1.5),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.NaN()), 0x7ff8000000000123, 0xfff8000000000456, 0x7ff0000000000001,
		math.Float64bits(math.MaxFloat64), 1}
	f32 := []uint64{0, 1 << 31, uint64(math.Float32bits(1.5)), uint64(math.Float32bits(-1.5)),
		0x7f800000, 0xff800000, 0x7fc00000, 0x7fc00123, 0xffc00456, 0x7f800001,
		uint64(math.Float32bits(math.MaxFloat32)), 1, uint64(math.Float32bits(16777217))}
	cat := func(as, bs [][]byte) [][]byte {
		var out [][]byte
		for _, a := range as {
			for _, b := range bs {
				out = append(out, append(append([]byte(nil), a...), b...))
			}
		}
		return out
	}
	switch k {
	case types.KindFloat64:
		return u(8, f64...)
	case types.KindFloat32:
		return u(4, f32...)
	case types.KindComplex128:
		return cat(u(8, f64[:9]...), u(8, f64[:9]...))
	case types.KindComplex64:
		return cat(u(4, f32[:9]...), u(4, f32[:9]...))
	case types.KindFloat64Int32:
		return cat(u(8, f64[:8]...), u(4, 0, 1, 0xffffffff, 0x7fffffff))
	case types.KindFloat32Int32:
		return cat(u(4, f32[:8]...), u(4, 0, 1, 0xffffffff, 0x7fffffff))
	case types.KindInt32Int32:
		return cat(u(4, 0, 1, 0xffffffff, 0x7fffffff, 0x80000000), u(4, 0, 1, 0xffffffff, 0x7fffffff))
	}
	sz := k.Size() // integers and bool: zero, one, two, all-ones, min and max
	top := uint64(1) << (8*sz - 1)
	return u(sz, 0, 1, 2, ^uint64(0), top, top-1, top+1, 0x55)
}

// nanFree reports whether the one case IEEE 754 leaves open applies to
// (op, k): SUM and PROD on a float or complex kind. When two operands of
// an addition or multiplication are both NaN, the result takes the sign
// and payload of one of them, and on amd64 that is whichever the register
// allocator made the instruction's first operand — it differs between two
// compilations of the same expression (the complex product's a.re*b.im +
// a.im*b.re does, here). Those components must both be NaN; every other
// byte, MAX/MIN's canonical NaN included, must be equal.
func nanFree(op Op, k types.Kind) (width int, ok bool) {
	if op != OpSum && op != OpProd {
		return 0, false
	}
	switch k {
	case types.KindFloat32, types.KindComplex64:
		return 4, true
	case types.KindFloat64, types.KindComplex128:
		return 8, true
	}
	return 0, false
}

func isNaNBits(b []byte) bool {
	if len(b) == 4 {
		v := math.Float32frombits(le.Uint32(b))
		return v != v
	}
	return math.IsNaN(math.Float64frombits(le.Uint64(b)))
}

// checkAgainstOracle runs one (op, kind) fold through Apply and through
// the oracle on copies of acc and requires the same bytes back.
func checkAgainstOracle(t *testing.T, op Op, k types.Kind, acc, in []byte, count int) {
	t.Helper()
	got := append([]byte(nil), acc...)
	want := append([]byte(nil), acc...)
	if err := Apply(op, k, got, in, count); err != nil {
		t.Fatalf("Apply(%v,%v,count=%d): %v", op, k, count, err)
	}
	applyOracle(op, k, want, in, count)
	if bytes.Equal(got, want) {
		return
	}
	sz := k.Size()
	if w, ok := nanFree(op, k); ok {
		sz = w
	}
	for i := 0; i < len(got); i += sz {
		j := min(i+sz, len(got))
		if bytes.Equal(got[i:j], want[i:j]) {
			continue
		}
		if _, ok := nanFree(op, k); ok && j <= count*k.Size() && isNaNBits(got[i:j]) && isNaNBits(want[i:j]) {
			continue
		}
		t.Fatalf("%v on %v, count %d, bytes [%d,%d): %x OP %x = %x, oracle says %x",
			op, k, count, i, j, acc[i:j], in[i:j], got[i:j], want[i:j])
	}
}

// TestApplyMatchesOracle is the kernels' contract: every compatible
// (op, kind) pair, on random bytes and on every ordered pair of special
// elements, folds to exactly the bytes the per-element oracle produces —
// and leaves the bytes past count alone.
func TestApplyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, op := range Ops() {
		for _, k := range types.Kinds() {
			if !Compatible(op, k) {
				continue
			}
			sz := k.Size()
			for _, count := range []int{0, 1, 7, 1024} {
				acc := make([]byte, count*sz+3) // a tail Apply must not touch
				in := make([]byte, count*sz+3)
				rng.Read(acc)
				rng.Read(in)
				checkAgainstOracle(t, op, k, acc, in, count)
			}
			sp := specials(k)
			var acc, in []byte
			for _, a := range sp {
				for _, b := range sp {
					acc = append(acc, a...)
					in = append(in, b...)
				}
			}
			checkAgainstOracle(t, op, k, acc, in, len(sp)*len(sp))
		}
	}
}

// FuzzApplyMatchesOracle feeds arbitrary bytes to every compatible pair:
// data is split into acc and in, op and kind are picked by index.
func FuzzApplyMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{1, 2, 3, 4, 250, 251, 252, 253})
	f.Fuzz(func(t *testing.T, opIdx, kindIdx uint8, data []byte) {
		op := Ops()[int(opIdx)%len(Ops())]
		k := types.Kinds()[int(kindIdx)%len(types.Kinds())]
		if !Compatible(op, k) {
			return
		}
		half := len(data) / 2
		checkAgainstOracle(t, op, k, data[:half], data[half:2*half], half/k.Size())
	})
}

// BenchmarkApply times one 1024-element fold per iteration for the
// kernels the collectives lean on: MPI_BYTE and int64 sums (the OSU
// sweeps), float64 sums (the applications), and one each of the
// compare and pair families.
func BenchmarkApply(b *testing.B) {
	const n = 1024
	for _, c := range []struct {
		name string
		op   Op
		k    types.Kind
	}{
		{"sum_u8", OpSum, types.KindByte},
		{"sum_i64", OpSum, types.KindInt64},
		{"sum_f64", OpSum, types.KindFloat64},
		{"max_i32", OpMax, types.KindInt32},
		{"maxloc_f64i32", OpMaxLoc, types.KindFloat64Int32},
	} {
		b.Run(c.name, func(b *testing.B) {
			acc := make([]byte, n*c.k.Size())
			in := make([]byte, n*c.k.Size())
			rand.New(rand.NewSource(1)).Read(in)
			b.SetBytes(int64(len(acc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Apply(c.op, c.k, acc, in, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
