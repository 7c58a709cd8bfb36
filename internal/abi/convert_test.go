package abi

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// A raw block carries bit patterns, not values: everything gob or a text
// format would normalise must come back exactly.
func TestFloat64BlockRoundTripBitExact(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Float64frombits(0xfff0000000000001), // quiet + signalling payloads
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), // subnormals
		math.MaxFloat64, 1.0 / 3,
	}
	// Longer than one staging chunk, so the chunk loop is crossed.
	long := make([]float64, 3*(32<<10)/8+5)
	for i := range long {
		long[i] = math.Float64frombits(uint64(i) * 0x9e3779b97f4a7c15)
	}
	for name, vs := range map[string][]float64{"special": special, "long": long, "empty": {}, "nil": nil} {
		var buf bytes.Buffer
		if err := WriteFloat64s(&buf, vs); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if want := 8 + 8*len(vs); buf.Len() != want {
			t.Fatalf("%s: block is %d bytes, want %d", name, buf.Len(), want)
		}
		got, err := ReadFloat64s(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if (got == nil) != (vs == nil) || len(got) != len(vs) {
			t.Fatalf("%s: got nil=%v len=%d, want nil=%v len=%d", name, got == nil, len(got), vs == nil, len(vs))
		}
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("%s[%d]: bits %#x, want %#x", name, i, math.Float64bits(got[i]), math.Float64bits(vs[i]))
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: reader left %d bytes", name, buf.Len())
		}
	}
}

// Two blocks back to back decode independently: the reader consumes its
// own block and nothing after it.
func TestFloat64BlocksAreSelfDelimiting(t *testing.T) {
	var buf bytes.Buffer
	for _, vs := range [][]float64{{1, 2, 3}, nil, {4}} {
		if err := WriteFloat64s(&buf, vs); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []int{3, 0, 1} {
		got, err := ReadFloat64s(&buf)
		if err != nil || len(got) != want {
			t.Fatalf("block of %d: got %v, %v", want, got, err)
		}
	}
}

func TestFloat64BlockRejectsBadLengths(t *testing.T) {
	block := func(declared uint64, payload int) []byte {
		b := binary.LittleEndian.AppendUint64(nil, declared)
		return append(b, make([]byte, payload)...)
	}
	for name, tc := range map[string]struct {
		raw  []byte
		want string
	}{
		"length not a multiple of 8":   {block(12, 12), "not a multiple of 8"},
		"declares more than it holds":  {block(32, 16), "ends early"},
		"hostile length, empty stream": {block(1<<62, 0), "ends early"},
		"short header":                 {[]byte{1, 2, 3}, "block length"},
		"no header":                    {nil, "block length"},
	} {
		got, err := ReadFloat64s(bytes.NewReader(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, %v; want an error mentioning %q", name, got, err, tc.want)
		}
	}
}
