package ops

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func encI32(vs ...int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

func decI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func encF64(vs ...float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func decF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func TestOpString(t *testing.T) {
	if OpSum.String() != "SUM" || OpMaxLoc.String() != "MAXLOC" {
		t.Fatalf("names wrong: %v %v", OpSum, OpMaxLoc)
	}
	if !OpSum.Valid() || OpNull.Valid() || Op(200).Valid() {
		t.Fatal("validity wrong")
	}
	if len(Ops()) != 12 {
		t.Fatalf("Ops() = %d entries, want 12", len(Ops()))
	}
}

func TestApplySumInt32(t *testing.T) {
	acc := encI32(1, -2, 3)
	in := encI32(10, 20, -30)
	if err := Apply(OpSum, types.KindInt32, acc, in, 3); err != nil {
		t.Fatal(err)
	}
	got := decI32(acc)
	want := []int32{11, 18, -27}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestApplyAllIntOps(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int32
		want int32
	}{
		{OpSum, 5, 7, 12},
		{OpProd, 5, 7, 35},
		{OpMax, 5, 7, 7},
		{OpMin, 5, 7, 5},
		{OpLAnd, 5, 0, 0},
		{OpLAnd, 5, 2, 1},
		{OpLOr, 0, 0, 0},
		{OpLOr, 0, 9, 1},
		{OpLXor, 3, 4, 0},
		{OpLXor, 3, 0, 1},
		{OpBAnd, 0b1100, 0b1010, 0b1000},
		{OpBOr, 0b1100, 0b1010, 0b1110},
		{OpBXor, 0b1100, 0b1010, 0b0110},
	}
	for _, c := range cases {
		acc := encI32(c.a)
		if err := Apply(c.op, types.KindInt32, acc, encI32(c.b), 1); err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if got := decI32(acc)[0]; got != c.want {
			t.Errorf("%d %v %d = %d, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestApplyFloat64(t *testing.T) {
	acc := encF64(1.5, -2.0)
	if err := Apply(OpProd, types.KindFloat64, acc, encF64(2.0, 3.0), 2); err != nil {
		t.Fatal(err)
	}
	got := decF64(acc)
	if got[0] != 3.0 || got[1] != -6.0 {
		t.Fatalf("prod = %v", got)
	}
	acc = encF64(1.5)
	if err := Apply(OpMax, types.KindFloat64, acc, encF64(-3.0), 1); err != nil {
		t.Fatal(err)
	}
	if decF64(acc)[0] != 1.5 {
		t.Fatalf("max = %v", decF64(acc))
	}
}

func TestApplyAllKindsAllOpsCompatibility(t *testing.T) {
	// Every (op, kind) pair must either Apply cleanly or be rejected by
	// Compatible — never panic.
	for _, op := range Ops() {
		for _, k := range types.Kinds() {
			acc := make([]byte, 2*k.Size())
			in := make([]byte, 2*k.Size())
			err := Apply(op, k, acc, in, 2)
			if Compatible(op, k) && err != nil {
				t.Errorf("Apply(%v,%v) failed despite Compatible: %v", op, k, err)
			}
			if !Compatible(op, k) && err == nil {
				t.Errorf("Apply(%v,%v) succeeded despite !Compatible", op, k)
			}
		}
	}
}

func TestCompatibleTable(t *testing.T) {
	yes := []struct {
		op Op
		k  types.Kind
	}{
		{OpSum, types.KindInt8}, {OpSum, types.KindComplex128}, {OpBAnd, types.KindUint64},
		{OpMaxLoc, types.KindFloat64Int32}, {OpLAnd, types.KindBool}, {OpMin, types.KindByte},
	}
	no := []struct {
		op Op
		k  types.Kind
	}{
		{OpBAnd, types.KindFloat32}, {OpMax, types.KindComplex64}, {OpMaxLoc, types.KindInt32},
		{OpSum, types.KindFloat64Int32}, {OpSum, types.KindBool}, {OpNull, types.KindInt32},
	}
	for _, c := range yes {
		if !Compatible(c.op, c.k) {
			t.Errorf("Compatible(%v,%v) = false, want true", c.op, c.k)
		}
	}
	for _, c := range no {
		if Compatible(c.op, c.k) {
			t.Errorf("Compatible(%v,%v) = true, want false", c.op, c.k)
		}
	}
}

func TestApplyShortBuffer(t *testing.T) {
	if err := Apply(OpSum, types.KindInt64, make([]byte, 8), make([]byte, 8), 2); err == nil {
		t.Fatal("short buffers accepted")
	}
	if err := Apply(OpSum, types.KindByte, make([]byte, 8), make([]byte, 8), -1); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestMaxLocMinLoc(t *testing.T) {
	enc := func(v float64, idx int32) []byte {
		b := make([]byte, 12)
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		binary.LittleEndian.PutUint32(b[8:], uint32(idx))
		return b
	}
	dec := func(b []byte) (float64, int32) {
		return math.Float64frombits(binary.LittleEndian.Uint64(b)),
			int32(binary.LittleEndian.Uint32(b[8:]))
	}
	acc := enc(3.5, 4)
	if err := Apply(OpMaxLoc, types.KindFloat64Int32, acc, enc(7.25, 2), 1); err != nil {
		t.Fatal(err)
	}
	if v, i := dec(acc); v != 7.25 || i != 2 {
		t.Fatalf("maxloc = (%v,%d), want (7.25,2)", v, i)
	}
	// Tie broken by lower index.
	acc = enc(7.25, 9)
	if err := Apply(OpMaxLoc, types.KindFloat64Int32, acc, enc(7.25, 2), 1); err != nil {
		t.Fatal(err)
	}
	if v, i := dec(acc); v != 7.25 || i != 2 {
		t.Fatalf("maxloc tie = (%v,%d), want (7.25,2)", v, i)
	}
	acc = enc(7.25, 2)
	if err := Apply(OpMinLoc, types.KindFloat64Int32, acc, enc(7.25, 9), 1); err != nil {
		t.Fatal(err)
	}
	if v, i := dec(acc); v != 7.25 || i != 2 {
		t.Fatalf("minloc tie = (%v,%d), want (7.25,2)", v, i)
	}
}

func TestBoolLogical(t *testing.T) {
	acc := []byte{1, 0, 1, 0}
	in := []byte{1, 1, 0, 0}
	if err := Apply(OpLXor, types.KindBool, acc, in, 4); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 1, 0}
	for i := range want {
		if acc[i] != want[i] {
			t.Fatalf("lxor[%d] = %d, want %d", i, acc[i], want[i])
		}
	}
}

// Property: SUM on int32 is commutative and associative (mod 2^32 wrap).
func TestSumCommutativeAssociative(t *testing.T) {
	f := func(a, b, c int32) bool {
		x := encI32(a)
		Apply(OpSum, types.KindInt32, x, encI32(b), 1)
		y := encI32(b)
		Apply(OpSum, types.KindInt32, y, encI32(a), 1)
		if decI32(x)[0] != decI32(y)[0] {
			return false
		}
		// (a+b)+c == a+(b+c)
		l := encI32(a)
		Apply(OpSum, types.KindInt32, l, encI32(b), 1)
		Apply(OpSum, types.KindInt32, l, encI32(c), 1)
		r1 := encI32(b)
		Apply(OpSum, types.KindInt32, r1, encI32(c), 1)
		r := encI32(a)
		Apply(OpSum, types.KindInt32, r, r1, 1)
		return decI32(l)[0] == decI32(r)[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MAX is idempotent and selects one of its operands.
func TestMaxProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x := encI32(a)
		Apply(OpMax, types.KindInt32, x, encI32(b), 1)
		got := decI32(x)[0]
		if got != a && got != b {
			return false
		}
		return got >= a && got >= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserOpRegistry(t *testing.T) {
	if _, _, err := LookupUser("nope"); err == nil {
		t.Fatal("lookup of unregistered op succeeded")
	}
	if err := RegisterUser("", true, nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	called := false
	err := RegisterUser("test.first", true, func(acc, in []byte, k types.Kind, count int) {
		called = true
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, comm, err := LookupUser("test.first")
	if err != nil || !comm {
		t.Fatalf("lookup: %v comm=%v", err, comm)
	}
	fn(nil, nil, types.KindInt32, 0)
	if !called {
		t.Fatal("function identity lost")
	}
}
