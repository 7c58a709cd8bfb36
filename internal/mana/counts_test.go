package mana

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCountsRoundTrip(t *testing.T) {
	for name, pub := range map[string]map[uint64]wireCounts{
		"no communicators": {},
		"idle communicator": {
			7: {MyRank: 3, SentTo: map[int]uint64{}},
		},
		"two communicators": {
			1 << 40: {MyRank: 0, SentTo: map[int]uint64{1: 5, 2: 1 << 50, 300: 0}},
			2:       {MyRank: 4095, SentTo: map[int]uint64{0: 1}},
		},
	} {
		raw := encodeCounts(pub)
		got, err := decodeCounts(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, pub) {
			t.Fatalf("%s: round trip gave %v, want %v", name, got, pub)
		}
		// Map iteration order must not reach the wire.
		for i := 0; i < 8; i++ {
			if again := encodeCounts(pub); !bytes.Equal(again, raw) {
				t.Fatalf("%s: encoding is not deterministic: %x vs %x", name, again, raw)
			}
		}
	}
}

func TestDecodeCountsRejects(t *testing.T) {
	good := encodeCounts(map[uint64]wireCounts{3: {MyRank: 1, SentTo: map[int]uint64{0: 9, 2: 4}}})
	overlong := bytes.Repeat([]byte{0x80}, 11)
	for name, tc := range map[string]struct {
		raw  []byte
		want string
	}{
		"empty payload":          {nil, "truncated"},
		"trailing byte":          {append(append([]byte(nil), good...), 0), "trailing"},
		"cut before last count":  {good[:len(good)-1], "exceeds"},
		"cut inside a varint":    {[]byte{1, 3, 0, 1, 5, 0x80}, "truncated"},
		"overlong varint":        {overlong, "overlong"},
		"hostile comm count":     {[]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, "exceeds"},
		"hostile peer count":     {[]byte{1, 3, 1, 0xff, 0xff, 0x03}, "exceeds"},
		"duplicate communicator": {[]byte{2, 3, 0, 0, 3, 0, 0}, "not ascending"},
		"descending peers":       {[]byte{1, 3, 0, 2, 5, 1, 4, 1}, "not ascending"},
		"rank out of range":      {[]byte{1, 3, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, "out of range"},
	} {
		got, err := decodeCounts(tc.raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, %v; want an error mentioning %q", name, got, err, tc.want)
		}
	}
}

// FuzzDrainCounts holds both directions of the drain-counter codec: a map
// generated from the input survives encode -> decode unchanged, and the
// input taken as a hostile payload decodes or errors without panicking,
// with whatever decodes re-encoding to an equivalent payload that stops
// being valid the moment a byte is appended. Seeds: testdata/fuzz.
func FuzzDrainCounts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Generated map: the bytes are consumed as (gid, rank, peer, count)
		// material, so the fuzzer steers shape and magnitudes.
		pub := map[uint64]wireCounts{}
		for i := 0; i+4 <= len(data); i += 4 {
			gid := uint64(data[i]) << (data[i+1] % 57)
			wc, ok := pub[gid]
			if !ok {
				wc = wireCounts{MyRank: int(data[i+1]), SentTo: map[int]uint64{}}
			}
			wc.SentTo[int(data[i+2])<<(data[i+3]%23)] = uint64(data[i+3]) << (data[i+2] % 57)
			pub[gid] = wc
		}
		got, err := decodeCounts(encodeCounts(pub))
		if err != nil || !reflect.DeepEqual(got, pub) {
			t.Fatalf("generated map %v came back as %v, %v", pub, got, err)
		}

		hostile, err := decodeCounts(data)
		if err != nil {
			return
		}
		again, err := decodeCounts(encodeCounts(hostile))
		if err != nil || !reflect.DeepEqual(again, hostile) {
			t.Fatalf("decoded payload %v re-encodes to %v, %v", hostile, again, err)
		}
		if _, err := decodeCounts(append(append([]byte(nil), data...), 0)); err == nil {
			t.Fatalf("payload %x accepted with a trailing byte", data)
		}
	})
}
