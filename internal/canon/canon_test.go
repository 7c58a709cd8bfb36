package canon

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

type inner struct {
	Tag  int32
	Data []byte
}

// state has a field of every kind the encoding accepts.
type state struct {
	Flag   bool
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	F      float64
	S      string
	Fs     []float64
	Is     []int
	Bs     []byte
	Inners []inner
	ByGid  map[uint64]map[int]uint64
	ByName map[string][]inner
	Neg    map[int8]bool
	Nested inner

	hidden int // never encoded, never written by Decode
}

func sample() state {
	return state{
		Flag: true, I: -1 << 40, I8: -128, I16: -300, I32: -1 << 30, I64: math.MinInt64,
		U: 1 << 63, U8: 255, U16: 65535, U32: 1<<32 - 1, U64: math.MaxUint64,
		F: math.Copysign(0, -1), S: "caf\xe9\x00", Fs: []float64{1, math.NaN(), math.Inf(-1)},
		Is: []int{3, -4}, Bs: []byte{0, 1, 2},
		Inners: []inner{{Tag: 9, Data: []byte("x")}, {Tag: -9}},
		ByGid:  map[uint64]map[int]uint64{1 << 40: {5: 1, -2: 7}, 3: {}},
		ByName: map[string][]inner{"b": {{Tag: 1}}, "a": nil, "": {{Tag: 2}, {Tag: 3}}},
		Neg:    map[int8]bool{-128: true, 127: false, 0: true},
		Nested: inner{Tag: 4, Data: []byte{}},
		hidden: 11,
	}
}

func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every exported field survives, unexported ones keep the destination's
// value, and the decoded value re-encodes to the same bytes.
func TestRoundTrip(t *testing.T) {
	in := sample()
	raw := encode(t, &in)
	if !bytes.Equal(encode(t, in), raw) {
		t.Fatal("a value and a pointer to it encode differently")
	}
	back := state{hidden: 99, I: 5, Fs: []float64{8}}
	if err := Decode(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.hidden != 99 {
		t.Fatalf("Decode wrote an unexported field: %d", back.hidden)
	}
	// Empty slices come back nil: a count of 0 is all either encodes to.
	want := in
	want.hidden, want.Nested.Data, want.Inners[1].Data = 99, nil, nil
	if math.Float64bits(back.Fs[1]) != math.Float64bits(in.Fs[1]) {
		t.Fatal("NaN payload lost")
	}
	back.Fs[1], want.Fs = 0, []float64{1, 0, math.Inf(-1)}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip gave\n%+v, want\n%+v", back, want)
	}
	back.Fs[1] = in.Fs[1]
	if again := encode(t, &back); !bytes.Equal(again, raw) {
		t.Fatal("decoded value re-encodes differently")
	}
	if back.ByGid[3] == nil {
		t.Fatal("an empty map decoded nil")
	}
}

// A []float64 is one run of bit patterns: everything a text format or a
// varint would normalise comes back exactly.
func TestFloat64sRoundTripBitExact(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Float64frombits(0xfff0000000000001), // quiet + signalling payloads
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), // subnormals
		math.MaxFloat64, 1.0 / 3,
	}
	// Longer than one staging chunk, so the chunk loop is crossed.
	long := make([]float64, 3*chunkSize/8+5)
	for i := range long {
		long[i] = math.Float64frombits(uint64(i) * 0x9e3779b97f4a7c15)
	}
	for name, vs := range map[string][]float64{"special": special, "long": long, "empty": {}, "nil": nil} {
		raw := encode(t, vs)
		if want := 16 + 8*len(vs); len(raw) != want {
			t.Fatalf("%s: %d bytes, want %d", name, len(raw), want)
		}
		for i, v := range vs {
			if got := binary.LittleEndian.Uint64(raw[16+8*i:]); got != math.Float64bits(v) {
				t.Fatalf("%s[%d]: wire bits %#x, want %#x", name, i, got, math.Float64bits(v))
			}
		}
		var got []float64
		if err := Decode(raw, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(vs) || (len(vs) == 0) != (got == nil) {
			t.Fatalf("%s: got nil=%v len=%d, want len=%d", name, got == nil, len(got), len(vs))
		}
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("%s[%d]: bits %#x, want %#x", name, i, math.Float64bits(got[i]), math.Float64bits(vs[i]))
			}
		}
	}
}

// Runs back to back decode independently: each count delimits its own
// run and nothing after it.
func TestFloat64sAreSelfDelimiting(t *testing.T) {
	type levels struct{ A, B, C []float64 }
	var back levels
	if err := Decode(encode(t, levels{A: []float64{1, 2, 3}, C: []float64{4}}), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.A) != 3 || back.B != nil || len(back.C) != 1 || back.C[0] != 4 {
		t.Fatalf("decoded %+v", back)
	}
}

// Map entries go out in ascending key order (signed keys by value), so
// the bytes never depend on Go's map iteration order.
func TestMapsEncodeInKeyOrder(t *testing.T) {
	m := map[int]uint64{}
	for k := -40; k < 40; k += 3 {
		m[k*k*k] = uint64(k + 40)
	}
	raw := encode(t, m)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(encode(t, m), raw) {
			t.Fatal("map encoding depends on iteration order")
		}
	}
	body := raw[16:]
	prev := int64(math.MinInt64)
	for len(body) > 0 {
		k := int64(binary.LittleEndian.Uint64(body))
		if k <= prev {
			t.Fatalf("key %d after %d", k, prev)
		}
		prev, body = k, body[16:]
	}
	strs := encode(t, map[string]int8{"b": 1, "": 2, "ab": 3, "a": 4})
	if want := "\x00\x00\x00\x00\x00\x00\x00\x00\x02" + "\x01\x00\x00\x00\x00\x00\x00\x00a\x04" +
		"\x02\x00\x00\x00\x00\x00\x00\x00ab\x03" + "\x01\x00\x00\x00\x00\x00\x00\x00b\x01"; string(strs[16:]) != want {
		t.Fatalf("string-keyed map encodes as %q, want %q", strs[16:], want)
	}
}

// The fingerprint covers exported field names and kinds, recursively,
// and nothing else: not type names, not unexported fields.
func TestFingerprint(t *testing.T) {
	type a struct {
		X int
		Y []struct{ Z string }
		q bool
	}
	type sameShape struct {
		X int
		Y []struct{ Z string }
	}
	type renamed struct {
		X int
		W []struct{ Z string }
	}
	type rekinded struct {
		X int32
		Y []struct{ Z string }
	}
	type deeper struct {
		X int
		Y []struct{ Z []byte }
	}
	fp := func(v any) uint64 { return binary.LittleEndian.Uint64(encode(t, v)) }
	if fp(a{}) != fp(sameShape{}) {
		t.Fatal("type name or unexported field changed the fingerprint")
	}
	for name, v := range map[string]any{"renamed": renamed{}, "rekinded": rekinded{}, "deeper": deeper{}} {
		if fp(v) == fp(a{}) {
			t.Errorf("%s: same fingerprint as the original", name)
		}
		var into a
		if err := Decode(encode(t, v), &into); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("%s: decoded into the original type: %v", name, err)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	type flags struct{ B bool }
	type pairs struct{ M map[int16]uint8 }
	type tail struct {
		A []int8
		B int64
	}
	good := encode(t, pairs{M: map[int16]uint8{-1: 1, 2: 2}})
	fp := good[:8]
	with := func(body ...byte) []byte { return append(append([]byte(nil), fp...), body...) }
	for name, tc := range map[string]struct {
		raw  []byte
		into any
		want string
	}{
		"bool byte 2":        {append(encode(t, flags{})[:8], 2), new(flags), "bool byte 2"},
		"trailing byte":      {append(append([]byte(nil), good...), 0), new(pairs), "trailing"},
		"cut short":          {good[:len(good)-1], new(pairs), "exceeds"},
		"cut in a scalar":    {encode(t, tail{A: []int8{1}})[:24], new(tail), "short"},
		"no fingerprint":     {good[:5], new(pairs), "short"},
		"other type":         {good, new(flags), "fingerprint"},
		"hostile count":      {with(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), new(pairs), "exceeds"},
		"duplicate key":      {with(2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 2), new(pairs), "ascend"},
		"descending keys":    {with(2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 1, 0, 2), new(pairs), "ascend"},
		"signed key order":   {with(2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0xff, 0xff, 2), new(pairs), "ascend"},
		"hostile run length": {append(encode(t, []float64(nil))[:8], 0, 0, 0, 0, 0, 0, 0, 0x10), new([]float64), "exceeds"},
		"run of odd length":  {append(encode(t, []float64{1})[:16], 1, 2, 3), new([]float64), "exceeds"},
		"hostile string":     {append(encode(t, "")[:8], 9, 0, 0, 0, 0, 0, 0, 0, 'a'), new(string), "exceeds"},
		"not a pointer":      {good, pairs{}, "non-nil pointer"},
	} {
		if err := Decode(tc.raw, tc.into); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, tc.want)
		}
	}
}

// What the encoding cannot carry is refused when the type is first met,
// with the path to the offending field.
func TestEncodeRefuses(t *testing.T) {
	type withIface struct{ V any }
	type withPtr struct{ P *int }
	type withChan struct{ C chan int }
	type withFunc struct{ F func() }
	type floatKeys struct{ M map[float64]int }
	type structKeys struct{ M map[struct{ A int }]int }
	type empties struct{ E []struct{ x int } }
	type node struct{ Kids []node }
	type withArray struct{ A [2]int }
	type deep struct {
		L []map[string]struct{ F float32 }
	}
	for name, tc := range map[string]struct {
		v    any
		want string
	}{
		"interface":       {withIface{}, "withIface.V: cannot encode a interface"},
		"nested pointer":  {withPtr{}, "withPtr.P: cannot encode a ptr"},
		"chan":            {withChan{}, "withChan.C: cannot encode a chan"},
		"func":            {withFunc{}, "withFunc.F: cannot encode a func"},
		"float keys":      {floatKeys{}, "floatKeys.M: map key float64"},
		"struct keys":     {structKeys{}, "structKeys.M: map key struct { A int }"},
		"no-byte element": {empties{}, "empties.E: a struct { x int } encodes to no bytes"},
		"recursive":       {node{}, "node.Kids[]: recursive type canon.node"},
		"deep float32":    {deep{}, "deep.L[][].F: cannot encode a float32"},
		"array":           {withArray{}, "withArray.A: cannot encode a array"},
		"nil pointer":     {(*state)(nil), "nil"},
		"nil":             {nil, "nil"},
	} {
		err := Encode(io.Discard, tc.v)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, tc.want)
		}
		if tc.v != nil && reflect.TypeOf(tc.v).Kind() != reflect.Pointer {
			dst := reflect.New(reflect.TypeOf(tc.v)).Interface()
			if err := Decode(make([]byte, 8), dst); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Decode got %v, want an error mentioning %q", name, err, tc.want)
			}
		}
	}
}

// Encoders run concurrently, share the type cache and the staging chunks,
// and still write the same bytes for the same value: the first encoding
// of a type in a process is no different from the hundredth.
func TestEncodeConcurrentIdentity(t *testing.T) {
	type fresh struct {
		M map[string]map[int]uint64
		V []float64
	}
	values := []any{sample(), fresh{M: map[string]map[int]uint64{"z": {2: 1, 1: 2}, "y": nil}, V: make([]float64, chunkSize/8+1)}}
	var want [][]byte
	var wg sync.WaitGroup
	got := make([][][]byte, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := Encode(&buf, values[(g+i)%len(values)]); err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], buf.Bytes())
			}
		}(g)
	}
	wg.Wait()
	for _, v := range values {
		want = append(want, encode(t, v))
	}
	for g := range got {
		for i, b := range got[g] {
			if !bytes.Equal(b, want[(g+i)%len(values)]) {
				t.Fatalf("goroutine %d, encoding %d: bytes differ from a lone encoding", g, i)
			}
		}
	}
}

// Encoding stages through one reusable chunk and decoding allocates each
// slice once, so neither allocates more often for a larger state.
func TestAllocationsDoNotGrowWithState(t *testing.T) {
	type levels struct {
		Iter int
		U, V []float64
	}
	allocs := func(n int) (enc, dec float64) {
		v := levels{Iter: 3, U: make([]float64, n), V: make([]float64, n)}
		raw := encode(t, &v)
		enc = testing.AllocsPerRun(20, func() {
			if err := Encode(io.Discard, &v); err != nil {
				t.Fatal(err)
			}
		})
		dec = testing.AllocsPerRun(20, func() {
			if err := Decode(raw, &v); err != nil {
				t.Fatal(err)
			}
		})
		return enc, dec
	}
	smallEnc, smallDec := allocs(1)
	bigEnc, bigDec := allocs(200_000)
	// A sync.Pool may drop the staging chunk (race builds do so on
	// purpose), which costs the next encoding two allocations.
	if bigEnc > smallEnc+1 || bigDec > smallDec {
		t.Fatalf("allocations per encode %.1f -> %.1f, per decode %.1f -> %.1f as the state grows",
			smallEnc, bigEnc, smallDec, bigDec)
	}
}

// A raw slice decodes into the destination's own array when its capacity
// holds the count, whatever that array held, and the value re-encodes to
// the bytes a decode into a fresh value does. A count past the capacity
// gets a fresh array and leaves the old one alone, and a slice that is not
// raw is always made fresh.
func TestDecodeIntoSpareCapacity(t *testing.T) {
	data := encode(t, sample())
	fs, is, bs := make([]float64, 64), make([]int, 64), make([]byte, 64)
	for i := range fs {
		fs[i], is[i], bs[i] = math.Pi, -7, 0xA5
	}
	inners := make([]inner, 0, 64)
	dst := state{Fs: fs[:1], Is: is[:0], Bs: bs[:60], Inners: inners}
	if err := Decode(data, &dst); err != nil {
		t.Fatal(err)
	}
	if again := encode(t, &dst); !bytes.Equal(again, data) {
		t.Fatal("a decode over spare capacity re-encodes differently")
	}
	if unsafe.SliceData(dst.Bs) != unsafe.SliceData(bs) {
		t.Fatal("the []byte did not decode into the destination's array")
	}
	if littleEndian && (unsafe.SliceData(dst.Fs) != unsafe.SliceData(fs) || unsafe.SliceData(dst.Is) != unsafe.SliceData(is)) {
		t.Fatal("a []float64 or []int did not decode into the destination's array")
	}
	if unsafe.SliceData(dst.Inners) == unsafe.SliceData(inners) {
		t.Fatal("a slice of structs decoded into the destination's array")
	}

	short := make([]float64, 2)
	dst = state{Fs: short}
	if err := Decode(data, &dst); err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(dst.Fs) == unsafe.SliceData(short) || short[0] != 0 || short[1] != 0 {
		t.Fatal("a count past the capacity decoded into the destination's array")
	}

	// A map's raw values each get their own array.
	type byName struct{ M map[string][]byte }
	var back byName
	if err := Decode(encode(t, byName{M: map[string][]byte{"a": {1, 2}, "b": {3, 4}}}), &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.M["a"], []byte{1, 2}) || !bytes.Equal(back.M["b"], []byte{3, 4}) {
		t.Fatalf("map values share an array: %v", back.M)
	}
}

// flat has only exported fixed-width numbers and no padding, so a slice of
// it is one raw run; the other shapes are not, each for one reason.
type (
	flat struct {
		X float64
		N int32
		M uint16
		B int8
		C uint8
		I int
		U uint64
	}
	padded struct {
		B int8
		X float64
	}
	hides   struct{ X, y float64 }
	boolean struct {
		X float64
		F bool
		G int8
		H int16
		I int32
	}
	nests struct{ P struct{ X float64 } }
)

// elementWise encodes a slice of structs of scalars the way the format
// describes it: a count, then every element's exported fields in order,
// each little-endian at its wire width.
func elementWise(fp uint64, s reflect.Value) []byte {
	out := binary.LittleEndian.AppendUint64(nil, fp)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.Len()))
	for i := 0; i < s.Len(); i++ {
		var fields func(v reflect.Value)
		fields = func(v reflect.Value) {
			for j := 0; j < v.NumField(); j++ {
				if !v.Type().Field(j).IsExported() {
					continue
				}
				f := v.Field(j)
				if f.Kind() == reflect.Struct {
					fields(f)
					continue
				}
				n := int(f.Type().Size())
				if k := f.Kind(); k == reflect.Int || k == reflect.Uint {
					n = 8
				}
				out = append(out, binary.LittleEndian.AppendUint64(nil, bitsOf(f))[:n]...)
			}
		}
		fields(s.Index(i))
	}
	return out
}

// A slice of a flat struct goes out as one copy of its memory and comes
// back into the destination's array; the bytes are the element-wise ones,
// flat or not, so the raw run changes no image.
func TestFlatStructSlicesAreOneRun(t *testing.T) {
	flats := []flat{
		{X: math.Pi, N: -5, M: 65535, B: -128, C: 255, I: -1 << 40, U: math.MaxUint64},
		{X: math.Copysign(0, -1), N: 1, I: 3},
		{X: math.NaN(), U: 7},
	}
	for _, c := range []struct {
		v    any
		flat bool
	}{
		{flats, littleEndian},
		{[]padded{{B: 1, X: 2}, {B: -1, X: math.Inf(-1)}}, false},
		{[]hides{{X: 1, y: 2}, {X: 3, y: 4}}, false},
		{[]boolean{{X: 1, F: true, G: -2, H: 3, I: 4}}, false},
		{[]nests{{}, {}}, false},
	} {
		s := reflect.ValueOf(c.v)
		if got := rawRun(s.Type().Elem()); got != c.flat {
			t.Errorf("%v: raw run %v, want %v", s.Type(), got, c.flat)
		}
		co, err := codecOf(s.Type())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encode(t, c.v), elementWise(co.fp, s); !bytes.Equal(got, want) {
			t.Errorf("%v encodes to\n%x, element by element it is\n%x", s.Type(), got, want)
		}
	}

	data := encode(t, flats)
	room := make([]flat, 1, 8)
	room[0].X = 99
	back := room[:1]
	if err := Decode(data, &back); err != nil {
		t.Fatal(err)
	}
	if again := encode(t, back); !bytes.Equal(again, data) {
		t.Fatal("a decoded []flat re-encodes differently")
	}
	if littleEndian && unsafe.SliceData(back) != unsafe.SliceData(room) {
		t.Fatal("a []flat did not decode into the destination's array")
	}
}
