package mana

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
)

// payload and readPayload are the two ends of PreCheckpoint's counter
// exchange.
func payload(t testing.TB, pub map[uint64]wireCounts) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := canon.Encode(&buf, pub); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readPayload(raw []byte) (map[uint64]wireCounts, error) {
	var pub map[uint64]wireCounts
	err := canon.Decode(raw, &pub)
	if err == nil {
		err = checkCounts(pub)
	}
	return pub, err
}

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
		raw := payload(t, pub)
		got, err := readPayload(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, pub) {
			t.Fatalf("%s: round trip gave %v, want %v", name, got, pub)
		}
		// canon's fuzz target decodes payloads into a type of this shape.
		var mirror map[uint64]struct {
			MyRank int
			SentTo map[int]uint64
		}
		if err := canon.Decode(raw, &mirror); err != nil || len(mirror) != len(pub) {
			t.Fatalf("%s: payload does not decode into FuzzCanonDecode's counts type: %v", name, err)
		}
		// Map iteration order must not reach the wire.
		for i := 0; i < 8; i++ {
			if again := payload(t, pub); !bytes.Equal(again, raw) {
				t.Fatalf("%s: encoding is not deterministic: %x vs %x", name, again, raw)
			}
		}
	}
}

func TestDecodeCountsRejects(t *testing.T) {
	// Layout: fingerprint, count, then per communicator gid, MyRank, peer
	// count and (peer, count) pairs, eight bytes each.
	one := payload(t, map[uint64]wireCounts{3: {MyRank: 1, SentTo: map[int]uint64{0: 9, 2: 4}}})
	two := payload(t, map[uint64]wireCounts{3: {MyRank: 1, SentTo: map[int]uint64{}}, 4: {MyRank: 1, SentTo: map[int]uint64{}}})
	patch := func(raw []byte, off int, v uint64) []byte {
		out := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}
	for name, tc := range map[string]struct {
		raw  []byte
		want string
	}{
		"empty payload":          {nil, "short"},
		"trailing byte":          {append(bytes.Clone(one), 0), "trailing"},
		"cut before last count":  {one[:len(one)-1], "exceeds"},
		"hostile comm count":     {patch(one, 8, math.MaxUint64), "exceeds"},
		"hostile peer count":     {patch(one, 32, 1<<40), "exceeds"},
		"duplicate communicator": {patch(two, 40, 3), "ascend"},
		"descending peers":       {patch(one, 56, 0), "ascend"},
		"rank out of range":      {patch(one, 24, 1<<40), "out of range"},
		"negative peer":          {patch(one, 40, math.MaxUint64), "out of range"},
		"fingerprint only":       {one[:8], "short"},
	} {
		got, err := readPayload(tc.raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, %v; want an error mentioning %q", name, got, err, tc.want)
		}
	}
	var other bytes.Buffer
	if err := canon.Encode(&other, map[uint64]int{}); err != nil {
		t.Fatal(err)
	}
	if _, err := readPayload(other.Bytes()); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("payload of another type accepted: %v", err)
	}
}

// FuzzDrainCounts holds both directions of the counter exchange: a map
// generated from the input survives encode -> decode unchanged, and the
// input taken as a hostile payload decodes and passes the rank check or
// errors, without panicking, with whatever is accepted re-encoding to the
// same bytes. Seeds: testdata/fuzz, in the canonical form; the names of
// the varint ones are those of the uvarint payload cases they replace.
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
		got, err := readPayload(payload(t, pub))
		if err != nil || !reflect.DeepEqual(got, pub) {
			t.Fatalf("generated map %v came back as %v, %v", pub, got, err)
		}

		hostile, err := readPayload(data)
		if err != nil {
			return
		}
		if again := payload(t, hostile); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload %x re-encodes to %x", data, again)
		}
	})
}
