package dmtcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

const (
	testBlob  = "plugin-blob-longer-than-a-trailer"
	testState = "program-state-of-some-length"
)

// writeSet writes a complete n-rank image set for step into
// PeriodicDir(root, step) of s, the way n agents would.
func writeSet(t *testing.T, s ImageStore, root string, n int, step uint64) string {
	t.Helper()
	set := PeriodicDir(root, step)
	for r := 0; r < n; r++ {
		img := RankImage{Rank: r, Step: step, Clock: int64(1000*step) + int64(r), PluginBlob: []byte(testBlob)}
		err := s.PutRank(set, r, func(w io.Writer) error {
			return encodeRankImage(w, img, func(w io.Writer) error {
				_, err := io.WriteString(w, testState)
				return err
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutMeta(set, Meta{NumRanks: n, Step: step, Program: "p"}); err != nil {
		t.Fatal(err)
	}
	return set
}

// putRaw stores data as rank's image of set, damaged or not.
func putRaw(t *testing.T, s ImageStore, set string, rank int, data []byte) {
	t.Helper()
	err := s.PutRank(set, rank, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// backends runs fn once per ImageStore backend; fresh returns an empty
// store of that backend and the root its sets go under.
func backends(t *testing.T, fn func(t *testing.T, fresh func() (ImageStore, string))) {
	t.Run("dir", func(t *testing.T) {
		fn(t, func() (ImageStore, string) { return Dir(""), t.TempDir() })
	})
	t.Run("mem", func(t *testing.T) {
		fn(t, func() (ImageStore, string) { return NewMem(), "images" })
	})
}

func TestRankImageRoundTrip(t *testing.T) {
	dir := writeSet(t, Dir(""), t.TempDir(), 2, 7)
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
	err = Dir("").PutRank(dir, 0, func(w io.Writer) error {
		return encodeRankImage(w, RankImage{Rank: 0}, func(io.Writer) error { return nil })
	})
	if err != nil {
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
	dir := writeSet(t, Dir(""), t.TempDir(), 1, 3)
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

// LatestComplete must decide completeness from the images, not from
// their names: any damaged rank image disqualifies its set and the scan
// falls back to the set before it — in either backend.
func TestLatestCompleteSkipsDamagedSets(t *testing.T) {
	backends(t, func(t *testing.T, fresh func() (ImageStore, string)) {
		// lineage writes a complete step-4 set and a step-8 set, complete
		// too unless its rank 2 image is damaged to data.
		lineage := func(damaged bool, data []byte) (ImageStore, string, string, string) {
			s, root := fresh()
			older := writeSet(t, s, root, 3, 4)
			newest := PeriodicDir(root, 8)
			if !damaged {
				writeSet(t, s, root, 3, 8)
			} else {
				for r := 0; r < 3; r++ {
					if r == 2 {
						putRaw(t, s, newest, r, data)
						continue
					}
					putRaw(t, s, newest, r, rankImage(t, r, 8))
				}
				if err := s.PutMeta(newest, Meta{NumRanks: 3, Step: 8, Program: "p"}); err != nil {
					t.Fatal(err)
				}
			}
			return s, root, older, newest
		}
		s, root, _, newest := lineage(false, nil)
		if set, meta, ok := LatestComplete(s, root, 3); !ok || set != newest || meta.Step != 8 {
			t.Fatalf("intact lineage: LatestComplete = %q step %d ok=%v", set, meta.Step, ok)
		}
		good := rankImage(t, 2, 8)
		for name, d := range damages(good, len(testBlob)) {
			s, root, older, _ := lineage(true, d.data)
			if set, meta, ok := LatestComplete(s, root, 3); !ok || set != older || meta.Step != 4 {
				t.Errorf("%s: LatestComplete = %q step %d ok=%v, want fallback to step 4", name, set, meta.Step, ok)
			}
		}
		// An image from another step (a stale image in a reused set) is
		// not part of this set.
		s, root, older, newest := lineage(true, rankImage(t, 2, 4))
		if set, _, ok := LatestComplete(s, root, 3); !ok || set != older {
			t.Errorf("stale-step image: LatestComplete = %q ok=%v, want fallback", set, ok)
		}
		// A rank whose write failed leaves no image, and so no set.
		failed := s.PutRank(newest, 2, func(w io.Writer) error {
			_, _ = w.Write(good[:headerLen])
			return errors.New("injected write failure")
		})
		if failed == nil {
			t.Fatal("failed write reported success")
		}
		if set, _, ok := LatestComplete(s, root, 3); !ok || set != older {
			t.Errorf("failed write: LatestComplete = %q ok=%v, want fallback", set, ok)
		}
		putRaw(t, s, newest, 2, good)
		if set, _, ok := LatestComplete(s, root, 3); !ok || set != newest {
			t.Fatalf("repaired lineage: LatestComplete = %q ok=%v", set, ok)
		}
		// With every set damaged there is nothing to restart from.
		s, root, older, _ = lineage(true, good[:headerLen])
		putRaw(t, s, older, 0, good[:headerLen])
		if set, _, ok := LatestComplete(s, root, 3); ok {
			t.Fatalf("all sets damaged, yet LatestComplete = %q", set)
		}
	})
}

// rankImage encodes the image writeSet stores for rank at step.
func rankImage(t *testing.T, rank int, step uint64) []byte {
	t.Helper()
	var out bytes.Buffer
	img := RankImage{Rank: rank, Step: step, Clock: int64(1000*step) + int64(rank), PluginBlob: []byte(testBlob)}
	err := encodeRankImage(&out, img, func(w io.Writer) error {
		_, err := io.WriteString(w, testState)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// A memory store keeps what recovery can use: a complete periodic set
// drops the periodic sets before it under its root, and nothing else.
func TestMemKeepsOnlyWhatRecoveryCanUse(t *testing.T) {
	s := NewMem()
	writeSet(t, s, "a", 2, 1)
	writeSet(t, s, "b", 2, 1)
	if err := s.PutMeta("a/other", Meta{NumRanks: 2}); err != nil {
		t.Fatal(err)
	}
	// A newer set in progress prunes nothing.
	putRaw(t, s, PeriodicDir("a", 2), 0, rankImage(t, 0, 2))
	if err := s.PutMeta(PeriodicDir("a", 2), Meta{NumRanks: 2, Step: 2}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a/other", PeriodicDir("a", 1), PeriodicDir("a", 2)}
	if got := s.Sets("a"); !reflect.DeepEqual(got, want) {
		t.Fatalf("in progress: sets %v, want %v", got, want)
	}
	putRaw(t, s, PeriodicDir("a", 2), 1, rankImage(t, 1, 2))
	want = []string{"a/other", PeriodicDir("a", 2)}
	if got := s.Sets("a"); !reflect.DeepEqual(got, want) {
		t.Fatalf("complete: sets %v, want %v", got, want)
	}
	if got := s.Sets("b"); !reflect.DeepEqual(got, []string{PeriodicDir("b", 1)}) {
		t.Fatalf("another root lost its sets: %v", got)
	}
	s.Release()
	if got := s.Sets("a"); len(got) != 0 {
		t.Fatalf("released store still holds %v", got)
	}
}

// The two backends store the same container bytes and the same meta for
// the same checkpoint, and a mirror writes both while reading its
// primary only.
func TestBackendsHoldTheSameImages(t *testing.T) {
	disk, mem := Dir(t.TempDir()), NewMem()
	mirrored := Dir(t.TempDir())
	both := Mirror(NewMem(), mirrored)
	for _, s := range []ImageStore{disk, mem, both} {
		writeSet(t, s, "run", 3, 5)
	}
	set := PeriodicDir("run", 5)
	for r := 0; r < 3; r++ {
		want, err := disk.Rank(set, r)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]ImageStore{"mem": mem, "mirror": both, "mirrored dir": mirrored} {
			if got, err := s.Rank(set, r); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s rank %d: %d bytes (%v), dir holds %d", name, r, len(got), err, len(want))
			}
		}
	}
	dm, _ := disk.Meta(set)
	for name, s := range map[string]ImageStore{"mem": mem, "mirrored dir": mirrored} {
		if m, err := s.Meta(set); err != nil || m != dm {
			t.Errorf("%s meta = %+v (%v), dir holds %+v", name, m, err, dm)
		}
	}
	// What the mirror's copy holds never reaches a reader.
	putRaw(t, mirrored, set, 0, nil)
	if _, err := ReadRank(both, set, 0); err != nil {
		t.Fatalf("mirror read its copy: %v", err)
	}
	writeSet(t, mirrored, "run", 3, 9)
	if set, _, ok := LatestComplete(both, "run", 3); !ok || set != PeriodicDir("run", 5) {
		t.Fatalf("mirror's LatestComplete = %q ok=%v, want its primary's step 5", set, ok)
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
		err = encodeRankImage(&out, img, func(w io.Writer) error {
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
