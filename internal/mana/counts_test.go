package mana

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/canon"
)

// wireCounts is the counter exchange's former payload entry: one rank's
// send counters for one communicator, published as a canon-encoded map of
// them keyed by gid and decoded whole by every receiver. It stays here as
// the oracle the record format is held to.
type wireCounts struct {
	MyRank int // the sender's rank within that communicator
	SentTo map[int]uint64
}

// oracleCounts is the former publishing side: the counters of every live
// communicator, canon-encoded.
func oracleCounts(t testing.TB, comms map[abi.Handle]*commInfo, sent map[abi.Handle]map[int]uint64) []byte {
	t.Helper()
	pub := make(map[uint64]wireCounts)
	for vid, counts := range sent {
		if info := comms[vid]; info != nil {
			pub[info.gid] = wireCounts{MyRank: info.myRank, SentTo: counts}
		}
	}
	var buf bytes.Buffer
	if err := canon.Encode(&buf, pub); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleFind is the former receiving side: decode a peer's whole payload,
// then look up the entry naming (gid, to).
func oracleFind(t testing.TB, raw []byte, gid uint64, to int) (from int, count uint64, ok bool) {
	t.Helper()
	var pub map[uint64]wireCounts
	if err := canon.Decode(raw, &pub); err != nil {
		t.Fatal(err)
	}
	wc, ok := pub[gid]
	if !ok {
		return 0, 0, false
	}
	count, ok = wc.SentTo[to]
	if !ok {
		return 0, 0, false
	}
	return wc.MyRank, count, true
}

// counters builds the record payload of a gid-keyed table, one vid per
// gid.
func counters(pub map[uint64]wireCounts) []byte {
	comms := make(map[abi.Handle]*commInfo, len(pub))
	sent := make(map[abi.Handle]map[int]uint64, len(pub))
	for gid, wc := range pub {
		vid := abi.Handle(gid)
		comms[vid] = &commInfo{gid: gid, myRank: wc.MyRank}
		sent[vid] = wc.SentTo
	}
	return encodeCounters(comms, sent)
}

// readCounters reads a checked payload back into a gid-keyed table.
func readCounters(raw []byte) (map[uint64]wireCounts, error) {
	if err := checkCounters(raw); err != nil {
		return nil, err
	}
	pub := map[uint64]wireCounts{}
	for i := 0; i < len(raw)/counterRecord; i++ {
		gid, from, to, count := counterAt(raw, i)
		wc, ok := pub[gid]
		if !ok {
			wc = wireCounts{MyRank: int(from), SentTo: map[int]uint64{}}
			pub[gid] = wc
		}
		wc.SentTo[int(to)] = count
	}
	return pub, nil
}

// published drops the communicators that sent nothing: they publish no
// record.
func published(pub map[uint64]wireCounts) map[uint64]wireCounts {
	out := map[uint64]wireCounts{}
	for gid, wc := range pub {
		if len(wc.SentTo) > 0 {
			out[gid] = wc
		}
	}
	return out
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
		"largest ranks and count": {
			math.MaxUint64: {MyRank: math.MaxInt32, SentTo: map[int]uint64{math.MaxInt32: math.MaxUint64, 0: 1}},
		},
	} {
		raw := counters(pub)
		records := 0
		for _, wc := range pub {
			records += len(wc.SentTo)
		}
		if len(raw) != records*counterRecord {
			t.Fatalf("%s: %d bytes for %d records", name, len(raw), records)
		}
		got, err := readCounters(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, published(pub)) {
			t.Fatalf("%s: round trip gave %v, want %v", name, got, pub)
		}
		// Map iteration order must not reach the wire.
		for i := 0; i < 8; i++ {
			if again := counters(pub); !bytes.Equal(again, raw) {
				t.Fatalf("%s: encoding is not deterministic: %x vs %x", name, again, raw)
			}
		}
	}
}

func TestDecodeCountsRejects(t *testing.T) {
	// Records of 24 bytes: gid at 0, sender rank at 8, destination at 12,
	// count at 16.
	one := counters(map[uint64]wireCounts{3: {MyRank: 1, SentTo: map[int]uint64{0: 9, 2: 4}}})
	two := counters(map[uint64]wireCounts{3: {MyRank: 1, SentTo: map[int]uint64{0: 1}}, 4: {MyRank: 1, SentTo: map[int]uint64{0: 1}}})
	patch := func(raw []byte, off int, v uint32) []byte {
		out := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	for name, tc := range map[string]struct {
		raw  []byte
		want string
	}{
		"trailing byte":                 {append(bytes.Clone(one), 0), "whole number"},
		"cut mid-record":                {one[:len(one)-1], "whole number"},
		"repeated record":               {append(bytes.Clone(one[:24]), one[:24]...), "ascend"},
		"descending destinations":       {patch(one, 36, 0), "ascend"},
		"descending communicators":      {patch(two, 24, 2), "ascend"},
		"sender rank out of range":      {patch(one, 8, math.MaxInt32+1), "out of range"},
		"negative destination":          {patch(one, 36, math.MaxUint32), "out of range"},
		"two ranks in one communicator": {patch(one, 32, 2), "sender ranks"},
	} {
		got, err := readCounters(tc.raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, %v; want an error mentioning %q", name, got, err, tc.want)
		}
	}
	if err := checkCounters(nil); err != nil {
		t.Errorf("an empty payload (no records) refused: %v", err)
	}
}

// TestCounterReadMatchesMapDecode holds the record read to the map decode
// it replaced: seeded random send tables on 1-17 ranks over CommWorld,
// each rank's CommSelf and derived communicators, and for every (gid,
// receiver rank) the binary search over each peer's records finds what
// decoding that peer's whole canon payload and looking the pair up finds.
func TestCounterReadMatchesMapDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for n := 1; n <= 17; n++ {
		// Derived communicators: a size and each world rank's rank in it,
		// or -1 where the rank is not a member.
		type derived struct {
			gid    uint64
			size   int
			rankOf []int
		}
		var subs []derived
		for d := 0; d < 4; d++ {
			perm := rng.Perm(n)
			size := 1 + rng.Intn(n)
			sub := derived{gid: commGID(1, EvCommSplit, uint32(d), rng.Intn(3)), size: size, rankOf: make([]int, n)}
			for r := range sub.rankOf {
				sub.rankOf[r] = -1
			}
			for i := 0; i < size; i++ {
				sub.rankOf[perm[i]] = i
			}
			subs = append(subs, sub)
		}
		gids := []uint64{1, 2, math.MaxUint64}
		for _, sub := range subs {
			gids = append(gids, sub.gid)
		}
		records, oracles := make([][]byte, n), make([][]byte, n)
		for r := 0; r < n; r++ {
			comms := map[abi.Handle]*commInfo{
				abi.CommWorld: {gid: 1, myRank: r, size: n},
				abi.CommSelf:  {gid: selfGID(r), myRank: 0, size: 1},
			}
			for i, sub := range subs {
				if sub.rankOf[r] >= 0 {
					comms[abi.MakeHandle(abi.ClassComm, vidBase+uint64(i))] = &commInfo{gid: sub.gid, myRank: sub.rankOf[r], size: sub.size}
				}
			}
			// Draw in vid order, so the seed alone fixes every table.
			vids := make([]abi.Handle, 0, len(comms))
			for vid := range comms {
				vids = append(vids, vid)
			}
			slices.Sort(vids)
			sent := map[abi.Handle]map[int]uint64{}
			for _, vid := range vids {
				info := comms[vid]
				if rng.Intn(4) == 0 {
					continue // never sent on it
				}
				counts := map[int]uint64{}
				for to := 0; to < info.size; to++ {
					switch rng.Intn(4) {
					case 0:
					case 1:
						counts[to] = 0
					case 2:
						counts[to] = uint64(1 + rng.Intn(5))
					default:
						counts[to] = rng.Uint64()
					}
				}
				sent[vid] = counts
			}
			// A freed communicator's counters are not published.
			sent[abi.MakeHandle(abi.ClassComm, vidBase+99)] = map[int]uint64{0: 3}
			records[r], oracles[r] = encodeCounters(comms, sent), oracleCounts(t, comms, sent)
			if err := checkCounters(records[r]); err != nil {
				t.Fatalf("n=%d rank %d: own payload refused: %v", n, r, err)
			}
			gids = append(gids, selfGID(r))
		}
		for _, gid := range gids {
			for me := 0; me <= n; me++ {
				for r := 0; r < n; r++ {
					from, count, ok := findCounter(records[r], gid, me)
					wFrom, wCount, wOK := oracleFind(t, oracles[r], gid, me)
					if ok != wOK || ok && (from != wFrom || count != wCount) {
						t.Fatalf("n=%d gid %#x rank %d, payload of rank %d: read (%d, %d, %v), map decode (%d, %d, %v)",
							n, gid, me, r, from, count, ok, wFrom, wCount, wOK)
					}
				}
			}
		}
	}
}

// TestCounterReadAllocatesNothing: checking 8 peers' payloads and finding
// one rank's records in each, as PreCheckpoint does, allocates nothing.
func TestCounterReadAllocatesNothing(t *testing.T) {
	const n = 8
	payloads := make([][]byte, n)
	for r := range payloads {
		sentTo := map[int]uint64{}
		for to := 0; to < n; to++ {
			sentTo[to] = uint64(r*n + to)
		}
		payloads[r] = counters(map[uint64]wireCounts{
			1:          {MyRank: r, SentTo: sentTo},
			selfGID(r): {MyRank: 0, SentTo: map[int]uint64{0: 2}},
		})
	}
	var total uint64
	allocs := testing.AllocsPerRun(100, func() {
		for _, raw := range payloads {
			if err := checkCounters(raw); err != nil {
				t.Fatal(err)
			}
			for _, gid := range []uint64{1, selfGID(3)} {
				_, count, _ := findCounter(raw, gid, 3)
				total += count
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("checking and reading %d payloads allocated %v times", n, allocs)
	}
	if total == 0 {
		t.Fatal("no record was found")
	}
}

// FuzzDrainCounts holds both directions of the counter exchange: a table
// generated from the input survives encode -> check -> read unchanged, and
// the input taken as a hostile payload is refused or accepted without
// panicking, with whatever is accepted re-encoding to the same bytes and
// every record found by the binary search. Seeds: testdata/fuzz, in the
// record form; each keeps the name of the payload case it replaces
// (cut-mid-varint is cut mid-record, noncanonical-int and overlong-varint
// carry ranks past MaxInt32, hostile-count the largest message count).
func FuzzDrainCounts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Generated table: the bytes are consumed as (gid, rank, peer,
		// count) material, so the fuzzer steers shape and magnitudes.
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
		raw := counters(pub)
		got, err := readCounters(raw)
		if err != nil || !reflect.DeepEqual(got, published(pub)) {
			t.Fatalf("generated table %v came back as %v, %v", pub, got, err)
		}
		for gid, wc := range pub {
			for to, count := range wc.SentTo {
				if from, c, ok := findCounter(raw, gid, to); !ok || from != wc.MyRank || c != count {
					t.Fatalf("(%#x, %d): found (%d, %d, %v), want (%d, %d)", gid, to, from, c, ok, wc.MyRank, count)
				}
			}
		}

		hostile, err := readCounters(data)
		if err != nil {
			return
		}
		if again := counters(hostile); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload %x re-encodes to %x", data, again)
		}
		for i := 0; i < len(data)/counterRecord; i++ {
			gid, from, to, count := counterAt(data, i)
			if f, c, ok := findCounter(data, gid, int(to)); !ok || f != int(from) || c != count {
				t.Fatalf("record %d (%#x, %d) found as (%d, %d, %v)", i, gid, to, f, c, ok)
			}
		}
	})
}
