package canon_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/apps/comd"
	"repro/internal/apps/wavempi"
	"repro/internal/canon"
	"repro/internal/dmtcp"
	"repro/internal/mana"
	"repro/internal/osu"
)

// targets are the types canon decodes from untrusted bytes: the program
// states of a scenario cell, MANA's blob and an image set's meta.
var targets = []func() any{
	func() any { return new(comd.CoMD) },
	func() any { return new(wavempi.Wave) },
	func() any { return new(osu.LatencyBench) },
	func() any { return new(mana.Blob) },
	func() any { return new(dmtcp.Meta) },
}

// allocSlack bounds what a decode may allocate: a constant for the
// decoder's own state plus a multiple of the input, since a declared count
// is checked against the bytes left before anything is made for it. The
// multiple covers the Go layout of the densest input, a map of empty maps.
const allocSlack, allocPerByte = 64 << 10, 64

// FuzzCanonDecode feeds arbitrary bytes to Decode for every target type.
// Decode must not panic, must not allocate past allocSlack+allocPerByte
// times the input, and whatever it accepts must re-encode byte for byte,
// also when decoded over a value whose numeric slices hold junk in spare
// capacity.
// Seeds: the program state and plugin blob of each real image in the
// rank-image corpus, plus a meta and a bench.
func FuzzCanonDecode(f *testing.F) {
	fingerprints := make([][]byte, len(targets))
	for i, target := range targets {
		fingerprints[i] = encode(f, target())[:8]
	}
	for _, seed := range seeds(f) {
		i := 0
		for i < len(targets) && canon.Decode(seed, targets[i]()) != nil {
			i++
		}
		if i == len(targets) {
			f.Fatalf("a %d-byte seed decodes as no target", len(seed))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, target := range targets {
			v := target()
			if len(data) < 8 || !bytes.Equal(data[:8], fingerprints[i]) {
				if err := canon.Decode(data, v); err == nil {
					t.Fatalf("%T decoded without its fingerprint", v)
				}
				continue
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := canon.Decode(data, v)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > allocSlack+allocPerByte*uint64(len(data)) {
				t.Fatalf("decoding %d bytes as %T allocated %d bytes", len(data), v, n)
			}
			if err != nil {
				continue
			}
			if again := encode(t, v); !bytes.Equal(again, data) {
				t.Fatalf("%T decoded from %d bytes re-encodes to %d different bytes", v, len(data), len(again))
			}
			dirty := withSpareJunk(target(), len(data))
			if err := canon.Decode(data, dirty); err != nil {
				t.Fatalf("%T decodes fresh but not over spare capacity: %v", v, err)
			}
			if again := encode(t, dirty); !bytes.Equal(again, data) {
				t.Fatalf("%T decoded over spare capacity re-encodes to %d different bytes", v, len(again))
			}
		}
	})
}

// withSpareJunk gives each exported slice field of *v whose elements are
// numbers, or structs of numbers like CoMD's atoms, one junk element and
// junk room for any count a room-byte input can declare, so a decode into
// it overwrites what it reuses.
func withSpareJunk(v any, room int) any {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f, typ := rv.Field(i), rv.Type().Field(i).Type
		if !rv.Type().Field(i).IsExported() || typ.Kind() != reflect.Slice || !numbers(typ.Elem()) {
			continue
		}
		size := int(typ.Elem().Size())
		s := reflect.MakeSlice(typ, 1, room/size+1)
		junk := unsafe.Slice((*byte)(s.UnsafePointer()), s.Cap()*size)
		for j := range junk {
			junk[j] = 0xA5
		}
		f.Set(s)
	}
	return v
}

// numbers reports whether t is a number or a struct of numbers: memory
// that holds no pointer, so junk in it is harmless.
func numbers(t reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return t.Kind() >= reflect.Int && t.Kind() <= reflect.Float64
	}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i).Type; f.Kind() == reflect.Struct || !numbers(f) {
			return false
		}
	}
	return true
}

func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := canon.Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seeds returns real sections from internal/dmtcp's rank-image corpus and
// encodings of the remaining targets.
func seeds(t testing.TB) [][]byte {
	files, err := filepath.Glob("../dmtcp/testdata/fuzz/FuzzRankImageDecode/real-*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no real images in the rank-image corpus: %v", err)
	}
	var out [][]byte
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(body, ")\n"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		images := dmtcp.NewMem()
		set := strconv.Itoa(i)
		if err := images.PutRank(set, 0, func(w io.Writer) error { _, err := w.Write([]byte(data)); return err }); err != nil {
			t.Fatal(err)
		}
		img, err := dmtcp.ReadRank(images, set, 0)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, img.ProgState)
		if len(img.PluginBlob) > 0 {
			out = append(out, img.PluginBlob)
		}
	}
	bench := osu.NewLatencyBench(osu.Allreduce)
	bench.Phase, bench.SizeIdx, bench.MeanMicros = 2, 3, []float64{1.5, 2.5, 4}
	return append(out,
		encode(t, bench),
		encode(t, dmtcp.Meta{NumRanks: 4, Impl: "mpich", ABI: "mukautuva", Ckpt: "mana", StandardABI: true, Program: "app.comd", Step: 7, NetSeed: -3}),
	)
}
