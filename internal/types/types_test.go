package types

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindSizes(t *testing.T) {
	want := map[Kind]int{
		KindByte: 1, KindInt8: 1, KindUint8: 1, KindInt16: 2, KindUint16: 2,
		KindInt32: 4, KindUint32: 4, KindInt64: 8, KindUint64: 8,
		KindFloat32: 4, KindFloat64: 8, KindComplex64: 8, KindComplex128: 16,
		KindBool: 1, KindFloat32Int32: 8, KindFloat64Int32: 12, KindInt32Int32: 8,
	}
	for k, sz := range want {
		if k.Size() != sz {
			t.Errorf("%v.Size() = %d, want %d", k, k.Size(), sz)
		}
	}
	if KindInvalid.Size() != 0 || KindInvalid.Valid() {
		t.Error("KindInvalid must be size 0 and invalid")
	}
	if len(Kinds()) != len(want) {
		t.Errorf("Kinds() has %d entries, want %d", len(Kinds()), len(want))
	}
}

func TestPredefinedCommitted(t *testing.T) {
	for _, k := range Kinds() {
		p := Predefined(k)
		if !p.Committed() {
			t.Errorf("Predefined(%v) not committed", k)
		}
		if p.Size() != k.Size() || p.Extent() != k.Size() {
			t.Errorf("Predefined(%v) size/extent = %d/%d, want %d", k, p.Size(), p.Extent(), k.Size())
		}
		if !p.Contiguousp() {
			t.Errorf("Predefined(%v) should be contiguous", k)
		}
		pk, ok := p.PrimKind()
		if !ok || pk != k {
			t.Errorf("Predefined(%v).PrimKind() = %v,%v", k, pk, ok)
		}
	}
}

func TestPredefinedInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Predefined(KindInvalid) did not panic")
		}
	}()
	Predefined(KindInvalid)
}

func mustCommit(t *testing.T) func(*Type, error) *Type {
	return func(ty *Type, err error) *Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
		return ty
	}
}

func TestContiguous(t *testing.T) {
	ty := mustCommit(t)(Contiguous(5, Predefined(KindInt32)))
	if ty.Size() != 20 || ty.Extent() != 20 {
		t.Fatalf("size/extent = %d/%d, want 20/20", ty.Size(), ty.Extent())
	}
	if !ty.Contiguousp() {
		t.Fatal("contiguous of primitive should be contiguous")
	}
}

func TestVectorLayout(t *testing.T) {
	// 3 blocks of 2 int32, stride 4 elements: |XX..XX..XX| (X=data, .=hole)
	ty := mustCommit(t)(Vector(3, 2, 4, Predefined(KindInt32)))
	if ty.Size() != 24 {
		t.Fatalf("Size = %d, want 24", ty.Size())
	}
	if ty.Extent() != (2*4+2)*4 {
		t.Fatalf("Extent = %d, want 40", ty.Extent())
	}
	if ty.Contiguousp() {
		t.Fatal("strided vector must not be contiguous")
	}
	src := make([]byte, ty.BufLen(1))
	for i := range src {
		src[i] = byte(i)
	}
	packed := make([]byte, ty.Size())
	n, err := ty.Pack(src, 1, packed)
	if err != nil || n != 24 {
		t.Fatalf("Pack n=%d err=%v", n, err)
	}
	// Block b starts at byte 16*b and contributes 8 bytes.
	want := append(append(src[0:8:8], src[16:24]...), src[32:40]...)
	if !bytes.Equal(packed, want) {
		t.Fatalf("packed = %v, want %v", packed, want)
	}
}

func TestVectorOverlapRejected(t *testing.T) {
	if _, err := Vector(2, 4, 2, Predefined(KindByte)); err == nil {
		t.Fatal("overlapping vector accepted")
	}
}

func TestIndexed(t *testing.T) {
	ty := mustCommit(t)(Indexed([]int{2, 1}, []int{0, 3}, Predefined(KindInt16)))
	if ty.Size() != 6 || ty.Extent() != 8 {
		t.Fatalf("size/extent = %d/%d, want 6/8", ty.Size(), ty.Extent())
	}
	src := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	dst := make([]byte, 6)
	if _, err := ty.Pack(src, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, []byte{0, 1, 2, 3, 6, 7}) {
		t.Fatalf("packed = %v", dst)
	}
}

func TestIndexedOverlapRejected(t *testing.T) {
	if _, err := Indexed([]int{2, 2}, []int{0, 1}, Predefined(KindByte)); err == nil {
		t.Fatal("overlapping indexed accepted")
	}
	if _, err := Indexed([]int{1}, []int{0, 1}, Predefined(KindByte)); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestStruct(t *testing.T) {
	// {int32 at 0, 2*float64 at 8}: size 20, extent 24.
	ty := mustCommit(t)(Struct(
		[]int{1, 2},
		[]int{0, 8},
		[]*Type{Predefined(KindInt32), Predefined(KindFloat64)}))
	if ty.Size() != 20 || ty.Extent() != 24 {
		t.Fatalf("size/extent = %d/%d, want 20/24", ty.Size(), ty.Extent())
	}
	src := make([]byte, 24)
	for i := range src {
		src[i] = byte(i + 1)
	}
	packed := make([]byte, 20)
	if _, err := ty.Pack(src, 1, packed); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, src[0:4]...), src[8:24]...)
	if !bytes.Equal(packed, want) {
		t.Fatalf("packed = %v, want %v", packed, want)
	}
	// Round-trip.
	out := make([]byte, 24)
	if _, err := ty.Unpack(packed, 1, out); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1, 2, 3, 8, 15, 23} {
		if out[idx] != src[idx] {
			t.Fatalf("unpacked byte %d = %d, want %d", idx, out[idx], src[idx])
		}
	}
	for _, idx := range []int{4, 5, 6, 7} { // holes untouched
		if out[idx] != 0 {
			t.Fatalf("hole byte %d = %d, want 0", idx, out[idx])
		}
	}
}

func TestStructUncommittedMemberRejected(t *testing.T) {
	v, err := Vector(2, 1, 2, Predefined(KindByte))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Struct([]int{1}, []int{0}, []*Type{v}); err == nil {
		t.Fatal("struct with uncommitted member accepted")
	}
}

func TestPackUncommittedFails(t *testing.T) {
	ty, err := Contiguous(2, Predefined(KindByte))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ty.Pack(make([]byte, 2), 1, make([]byte, 2)); err == nil {
		t.Fatal("Pack on uncommitted type succeeded")
	}
}

func TestPackShortBuffers(t *testing.T) {
	ty := Predefined(KindInt64)
	if _, err := ty.Pack(make([]byte, 8), 2, make([]byte, 8)); err == nil {
		t.Fatal("short dst accepted")
	}
	if _, err := ty.Pack(make([]byte, 8), 2, make([]byte, 16)); err == nil {
		t.Fatal("short src accepted")
	}
	if _, err := ty.Unpack(make([]byte, 8), 2, make([]byte, 16)); err == nil {
		t.Fatal("short unpack src accepted")
	}
	if _, err := ty.Unpack(make([]byte, 16), 2, make([]byte, 8)); err == nil {
		t.Fatal("short unpack dst accepted")
	}
}

func TestMultiElementPack(t *testing.T) {
	ty := mustCommit(t)(Vector(2, 1, 2, Predefined(KindInt32)))
	const count = 3
	src := make([]byte, ty.BufLen(count))
	for i := range src {
		src[i] = byte(i)
	}
	packed := make([]byte, count*ty.Size())
	if _, err := ty.Pack(src, count, packed); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, ty.BufLen(count))
	if _, err := ty.Unpack(packed, count, out); err != nil {
		t.Fatal(err)
	}
	// Data positions must round-trip; holes remain zero.
	for e := 0; e < count; e++ {
		base := e * ty.Extent()
		for b := 0; b < 2; b++ {
			for i := 0; i < 4; i++ {
				idx := base + b*8 + i
				if out[idx] != src[idx] {
					t.Fatalf("byte %d = %d, want %d", idx, out[idx], src[idx])
				}
			}
		}
	}
}

func TestNestedDerived(t *testing.T) {
	inner := mustCommit(t)(Vector(2, 1, 2, Predefined(KindInt16))) // 4 data bytes, extent 6
	outer := mustCommit(t)(Contiguous(3, inner))
	if outer.Size() != 12 || outer.Extent() != 18 {
		t.Fatalf("nested size/extent = %d/%d, want 12/18", outer.Size(), outer.Extent())
	}
	pk, ok := outer.PrimKind()
	if !ok || pk != KindInt16 {
		t.Fatalf("PrimKind = %v,%v, want INT16,true", pk, ok)
	}
}

func TestPrimKindMixed(t *testing.T) {
	ty := mustCommit(t)(Struct([]int{1, 1}, []int{0, 4},
		[]*Type{Predefined(KindInt32), Predefined(KindFloat32)}))
	if _, ok := ty.PrimKind(); ok {
		t.Fatal("mixed struct reported a uniform PrimKind")
	}
}

// randomType builds a random committed type over a primitive kind.
func randomType(r *rand.Rand, depth int) *Type {
	kinds := Kinds()
	prim := Predefined(kinds[r.Intn(len(kinds))])
	ty := prim
	for d := 0; d < depth; d++ {
		var next *Type
		var err error
		switch r.Intn(4) {
		case 0:
			next, err = Contiguous(1+r.Intn(4), ty)
		case 1:
			bl := 1 + r.Intn(3)
			next, err = Vector(1+r.Intn(3), bl, bl+r.Intn(3), ty)
		case 2:
			n := 1 + r.Intn(3)
			bls := make([]int, n)
			dps := make([]int, n)
			at := 0
			for i := range bls {
				at += r.Intn(2)
				bls[i] = 1 + r.Intn(2)
				dps[i] = at
				at += bls[i]
			}
			next, err = Indexed(bls, dps, ty)
		case 3:
			// ty, then a primitive after an optional hole.
			if err := ty.Commit(); err != nil {
				panic(err)
			}
			bl := 1 + r.Intn(2)
			next, err = Struct([]int{bl, 1}, []int{0, bl*ty.Extent() + r.Intn(3)},
				[]*Type{ty, Predefined(kinds[r.Intn(len(kinds))])})
		}
		if err != nil {
			panic(err)
		}
		ty = next
	}
	if err := ty.Commit(); err != nil {
		panic(err)
	}
	return ty
}

// Property: for any derived type, Pack followed by Unpack restores every
// data byte, and the packed size equals count*Size().
func TestPackUnpackRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64, countRaw uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		ty := randomType(rr, 1+rr.Intn(3))
		count := 1 + int(countRaw%4)
		src := make([]byte, ty.BufLen(count))
		r.Read(src)
		packed := make([]byte, count*ty.Size())
		n, err := ty.Pack(src, count, packed)
		if err != nil || n != count*ty.Size() {
			return false
		}
		out := make([]byte, ty.BufLen(count))
		if _, err := ty.Unpack(packed, count, out); err != nil {
			return false
		}
		// Re-pack the unpacked buffer: must equal the first packing.
		packed2 := make([]byte, count*ty.Size())
		if _, err := ty.Pack(out, count, packed2); err != nil {
			return false
		}
		return bytes.Equal(packed, packed2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: size <= extent always, and BufLen(count) <= count*extent.
func TestSizeExtentInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		ty := randomType(rr, 1+rr.Intn(4))
		return ty.Size() <= ty.Extent() && ty.BufLen(3) <= 3*ty.Extent() && ty.BufLen(0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// unpackPartialOracle is UnpackPartial without its contiguous fast path:
// every element walks the type's segments, and a segment dst cannot hold
// stops the walk with the bytes consumed so far.
func unpackPartialOracle(t *Type, src, dst []byte) (int, error) {
	if !t.committed {
		return 0, errNotCommitted
	}
	if t.size == 0 {
		return 0, nil
	}
	n := 0
	for base := 0; n < len(src); base += t.extent {
		for _, s := range t.segs {
			if n == len(src) {
				return n, nil
			}
			take := min(s.len, len(src)-n)
			if base+s.off+take > len(dst) {
				return n, fmt.Errorf("oracle: dst too short: need %d bytes", base+s.off+take)
			}
			copy(dst[base+s.off:base+s.off+take], src[n:n+take])
			n += take
		}
	}
	return n, nil
}

// FuzzUnpackPartial holds UnpackPartial to the segment-walking oracle over
// random committed types (primitive, contiguous, vector, indexed, struct,
// nested), src lengths that end mid-element, and dst buffers short of what
// src needs: both must consume the same bytes, leave the same dst, and
// fail in the same cases.
func FuzzUnpackPartial(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(13), uint16(64)) // a primitive, partial last element
	f.Add(int64(2), uint8(1), uint16(40), uint16(17)) // short dst
	f.Add(int64(3), uint8(2), uint16(500), uint16(900))
	f.Add(int64(7), uint8(3), uint16(77), uint16(1000))
	f.Add(int64(11), uint8(4), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, srcLen, dstLen uint16) {
		r := rand.New(rand.NewSource(seed))
		ty := randomType(r, int(depth%5))
		// Up to five elements' worth of src, so the last is often partial;
		// dst anywhere from empty to past what five elements need.
		src := make([]byte, int(srcLen)%(5*ty.Size()+1))
		r.Read(src)
		dst := make([]byte, int(dstLen)%(ty.BufLen(5)+2))
		for i := range dst {
			dst[i] = 0xA5
		}
		want := append([]byte(nil), dst...)
		wantN, wantErr := unpackPartialOracle(ty, src, want)
		n, err := ty.UnpackPartial(src, dst)
		if n != wantN || (err == nil) != (wantErr == nil) {
			t.Fatalf("%v: src %d dst %d bytes: got n=%d err=%v, oracle n=%d err=%v",
				ty, len(src), len(dst), n, err, wantN, wantErr)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("%v: src %d dst %d bytes: dst differs from the oracle's", ty, len(src), len(dst))
		}
	})
}

func TestStringDescriptions(t *testing.T) {
	v := mustCommit(t)(Vector(2, 1, 2, Predefined(KindInt32)))
	for _, ty := range []*Type{Predefined(KindFloat64), v} {
		if ty.String() == "" || ty.String() == "UNKNOWN" {
			t.Errorf("String() for %#v unhelpful: %q", ty, ty.String())
		}
	}
}

func BenchmarkPackVector(b *testing.B) {
	ty, _ := Vector(64, 4, 8, Predefined(KindFloat64))
	if err := ty.Commit(); err != nil {
		b.Fatal(err)
	}
	src := make([]byte, ty.BufLen(1))
	dst := make([]byte, ty.Size())
	b.SetBytes(int64(ty.Size()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ty.Pack(src, 1, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackContiguous(b *testing.B) {
	ty, _ := Contiguous(1024, Predefined(KindFloat64))
	if err := ty.Commit(); err != nil {
		b.Fatal(err)
	}
	src := make([]byte, ty.BufLen(1))
	dst := make([]byte, ty.Size())
	b.SetBytes(int64(ty.Size()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ty.Pack(src, 1, dst); err != nil {
			b.Fatal(err)
		}
	}
}
