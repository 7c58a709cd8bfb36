package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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
