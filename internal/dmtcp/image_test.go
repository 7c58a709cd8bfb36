package dmtcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	testBlob  = "plugin-blob-longer-than-a-trailer"
	testState = "program-state-of-some-length"
)

// writeSet writes a complete n-rank image set for step into
// PeriodicDir(root, step), the way n agents would.
func writeSet(t *testing.T, root string, n int, step uint64) string {
	t.Helper()
	dir := PeriodicDir(root, step)
	for r := 0; r < n; r++ {
		img := RankImage{Rank: r, Step: step, Clock: int64(1000*step) + int64(r), PluginBlob: []byte(testBlob)}
		err := writeRankImage(dir, img, func(w io.Writer) error {
			_, err := io.WriteString(w, testState)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := writeMeta(dir, Meta{NumRanks: n, Step: step, Program: "p"}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRankImageRoundTrip(t *testing.T) {
	dir := writeSet(t, t.TempDir(), 2, 7)
	img, err := ReadRankImage(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if img.Rank != 1 || img.Step != 7 || img.Clock != 7001 ||
		string(img.PluginBlob) != testBlob || string(img.ProgState) != testState {
		t.Fatalf("image = %+v", img)
	}
	// The sections alias one buffer but cannot grow into each other.
	if cap(img.PluginBlob) != len(img.PluginBlob) || cap(img.ProgState) != len(img.ProgState) {
		t.Fatal("section slices are not capacity-clipped")
	}
	h, err := ReadRankHeader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := RankHeader{Rank: 1, Step: 7, Clock: 7001, BlobLen: int64(len(img.PluginBlob)), StateLen: int64(len(img.ProgState))}
	if h != want {
		t.Fatalf("header = %+v, want %+v", h, want)
	}
	// Empty sections are legal (NopPlugin, a stateless program).
	if err := writeRankImage(dir, RankImage{Rank: 0}, func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if img, err = ReadRankImage(dir, 0); err != nil || len(img.PluginBlob)+len(img.ProgState) != 0 {
		t.Fatalf("empty image = %+v, %v", img, err)
	}
}

// damages enumerates the ways an image file goes bad: cut at every section
// boundary and at a seeded interior offset, the self-describing fields
// flipped, and lengths that lie. Each yields the damaged bytes and a
// fragment its error must carry.
func damages(good []byte, blobLen int) map[string]struct {
	data []byte
	want string
} {
	mutate := func(off int, b byte) []byte {
		d := append([]byte(nil), good...)
		d[off] ^= b
		return d
	}
	lie := func(off int, v uint64) []byte {
		d := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(d[off:], v)
		return d
	}
	stateEnd := len(good) - trailerLen
	interior := 1 + rand.New(rand.NewSource(42)).Intn(len(good)-1)
	return map[string]struct {
		data []byte
		want string
	}{
		"empty file":             {nil, "shorter than"},
		"cut inside header":      {good[:headerLen/2], "shorter than"},
		"cut after header":       {good[:headerLen], "shorter than"},
		"cut after blob":         {good[:headerLen+blobLen], "end marker"},
		"cut after state":        {good[:stateEnd], "end marker"},
		"cut inside trailer":     {good[:stateEnd+8], "end marker"},
		"cut at interior offset": {good[:interior], ""},
		"magic flipped":          {mutate(0, 0xff), "not a rank image"},
		"version flipped":        {mutate(8, 0x01), "format version"},
		"end marker flipped":     {mutate(len(good)-1, 0x01), "end marker"},
		"hostile blob length":    {lie(32, 1<<63), "do not fill"},
		"blob length off by one": {lie(32, uint64(blobLen)+1), "do not fill"},
		"hostile state length":   {lie(stateEnd, ^uint64(0)), "do not fill"},
		"trailing garbage":       {append(append([]byte(nil), good...), 0), "end marker"},
	}
}

func TestReadRankImageRejectsDamage(t *testing.T) {
	dir := writeSet(t, t.TempDir(), 1, 3)
	path := rankImagePath(dir, 0)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range damages(good, len(testBlob)) {
		if err := os.WriteFile(path, d.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ierr := ReadRankImage(dir, 0)
		_, herr := ReadRankHeader(dir, 0)
		for what, err := range map[string]error{"ReadRankImage": ierr, "ReadRankHeader": herr} {
			if err == nil || !strings.Contains(err.Error(), d.want) {
				t.Errorf("%s, %s: error %v, want one mentioning %q", name, what, err, d.want)
			}
		}
	}
	// A sound image filed under another rank's name is refused too.
	if err := os.WriteFile(rankImagePath(dir, 5), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRankImage(dir, 5); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("misfiled image: %v", err)
	}
	if _, err := ReadRankHeader(dir, 5); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("misfiled image header: %v", err)
	}
}

// LatestComplete must decide completeness from the files, not from their
// names: any damaged rank image disqualifies its set and the scan falls
// back to the set before it.
func TestLatestCompleteSkipsDamagedSets(t *testing.T) {
	root := t.TempDir()
	older := writeSet(t, root, 3, 4)
	newest := writeSet(t, root, 3, 8)
	if dir, meta, ok := LatestComplete(root, 3); !ok || dir != newest || meta.Step != 8 {
		t.Fatalf("intact lineage: LatestComplete = %q step %d ok=%v", dir, meta.Step, ok)
	}
	path := rankImagePath(newest, 2)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range damages(good, len(testBlob)) {
		if err := os.WriteFile(path, d.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if dir, meta, ok := LatestComplete(root, 3); !ok || dir != older || meta.Step != 4 {
			t.Errorf("%s: LatestComplete = %q step %d ok=%v, want fallback to step 4", name, dir, meta.Step, ok)
		}
	}
	// An image from another step (a stale file in a reused directory) is
	// not part of this set.
	stale, err := os.ReadFile(rankImagePath(older, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if dir, _, ok := LatestComplete(root, 3); !ok || dir != older {
		t.Errorf("stale-step image: LatestComplete = %q ok=%v, want fallback", dir, ok)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if dir, _, ok := LatestComplete(root, 3); !ok || dir != newest {
		t.Fatalf("repaired lineage: LatestComplete = %q ok=%v", dir, ok)
	}
	// With every set damaged there is nothing to restart from.
	for _, d := range []string{older, newest} {
		if err := os.Truncate(filepath.Join(d, "rank_0000.img"), headerLen); err != nil {
			t.Fatal(err)
		}
	}
	if dir, _, ok := LatestComplete(root, 3); ok {
		t.Fatalf("all sets damaged, yet LatestComplete = %q", dir)
	}
}

// FuzzRankImageDecode: arbitrary bytes decode or error — never panic,
// never slice out of range — and whatever decodes is a fixed point of the
// encoder, with sections that exactly tile the space between header and
// trailer. The checked-in corpus (testdata/fuzz; corpus_test.go
// regenerates it) holds real app.wave and app.comd images under
// mpich+mukautuva+mana and openmpi+native+dmtcp, plus truncations.
func FuzzRankImageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeRankImage(data)
		if err != nil {
			return
		}
		if headerLen+len(img.PluginBlob)+len(img.ProgState)+trailerLen != len(data) {
			t.Fatalf("sections %d+%d do not tile a %d-byte image", len(img.PluginBlob), len(img.ProgState), len(data))
		}
		var out bytes.Buffer
		err = encodeRankImage(bufio.NewWriter(&out), img, func(w io.Writer) error {
			_, err := w.Write(img.ProgState)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encoding a decoded image changed it (%d -> %d bytes)", len(data), out.Len())
		}
	})
}
