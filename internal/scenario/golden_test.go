package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick from this build (the only way a deliberate virtual-time change lands)")

// goldenCell renders one result as the golden file holds it: the cell's
// JSON with wall_ms and cached dropped (the only fields that differ
// between two runs), keys sorted, numbers kept exactly as encoded.
func goldenCell(t *testing.T, res Result) map[string]any {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var cell map[string]any
	if err := dec.Decode(&cell); err != nil {
		t.Fatal(err)
	}
	delete(cell, "wall_ms")
	delete(cell, "cached")
	return cell
}

func encodeGolden(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestQuickMatrixGolden runs all 252 cells of the default quick matrix —
// plain, restart, nic-degrade and every crash-recovery mode — and
// compares them byte for byte with testdata/quick/matrix.json. Every run
// is bit-deterministic, so a change that moves a virtual time, a fault
// record or a cell hash fails here, naming the cell.
func TestQuickMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 252 cells of the quick matrix")
	}
	specs := DefaultMatrix().Enumerate()
	o := Quick()
	o.Parallel = 2
	rep := Run(specs, o)
	if f := rep.FirstFailure(); f != nil {
		t.Fatalf("%d of %d cells failed; first: %s: %s", rep.Failed, rep.Scenarios, f.ID, f.Error)
	}
	cells := make([]map[string]any, len(rep.Results))
	for i, res := range rep.Results {
		cells[i] = goldenCell(t, res)
	}
	got := encodeGolden(t, cells)
	path := filepath.Join("testdata", "quick", "matrix.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.UseNumber()
	var wantCells []map[string]any
	if err := dec.Decode(&wantCells); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for i := range cells {
		if i >= len(wantCells) {
			break
		}
		if g, w := encodeGolden(t, cells[i]), encodeGolden(t, wantCells[i]); !bytes.Equal(g, w) {
			t.Fatalf("cell %v differs from %s (re-run with -update only for a deliberate virtual-time change):\n--- got\n%s--- want\n%s",
				cells[i]["id"], path, g, w)
		}
	}
	t.Fatalf("%s holds %d cells, this build ran %d", path, len(wantCells), len(cells))
}

// imageCells have their checkpoint image sets pinned by SHA-256 in
// testdata/quick/images.sha256: a MANA image set restarted under another
// implementation and a plain-DMTCP one.
var imageCells = []string{
	"app.comd/mpich+mukautuva+mana>openmpi+mukautuva",
	"app.wave/mpich+native+dmtcp>mpich+native",
}

// TestQuickImageDigests: an image is a function of the state it holds. The
// pinned cells run after other checkpointing cells in the same process,
// and their image sets (every file of every repetition) must hash to the
// same digests whatever ran before them, here or under -count=3.
func TestQuickImageDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs checkpointing cells of the quick matrix")
	}
	var before, pinned []Spec
	for _, s := range DefaultMatrix().Enumerate() {
		switch id := s.ID(); {
		case slices.Contains(imageCells, id):
			pinned = append(pinned, s)
		case strings.Contains(id, ">") && !strings.Contains(id, "!") && len(before) < 6:
			before = append(before, s)
		}
	}
	if len(pinned) != len(imageCells) || len(before) == 0 {
		t.Fatalf("matrix holds %d of the %d pinned cells and %d others to run first", len(pinned), len(imageCells), len(before))
	}
	o := Quick()
	o.KeepImages = t.TempDir()
	for _, specs := range [][]Spec{before, pinned} {
		if rep := Run(specs, o); rep.FirstFailure() != nil {
			t.Fatalf("%s: %s", rep.FirstFailure().ID, rep.FirstFailure().Error)
		}
	}
	var got bytes.Buffer
	for _, s := range pinned {
		fmt.Fprintf(&got, "%x  %s\n", digestTree(t, filepath.Join(o.KeepImages, idPath(s.ID()))), s.ID())
	}
	path := filepath.Join("testdata", "quick", "images.sha256")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("image digests differ from %s (re-run with -update only for a deliberate image format change):\n--- got\n%s--- want\n%s",
			path, got.Bytes(), want)
	}
}

// digestTree hashes every file under root, in path order, with its path
// and length.
func digestTree(t *testing.T, root string) []byte {
	t.Helper()
	h := sha256.New()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		files++
		return nil
	})
	if err != nil || files == 0 {
		t.Fatalf("%s: %d files, %v", root, files, err)
	}
	return h.Sum(nil)
}
