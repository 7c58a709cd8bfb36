package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick from this build (the only way a deliberate virtual-time change lands)")

// TestQuickFigureGoldens regenerates Figures 2-4 at Quick() scale — runs
// are bit-for-bit reproducible — and compares the CSVs byte for byte with
// the checked-in ones: a change that moves any virtual number fails here,
// naming the figure, instead of needing a second checkout to diff against.
func TestQuickFigureGoldens(t *testing.T) {
	o := Quick()
	golden := filepath.Join("testdata", "quick")
	out := golden
	if !*update {
		out = t.TempDir()
	}
	for _, fn := range []func(Options) (*Figure, error){Fig2, Fig3, Fig4} {
		fig, err := fn(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := fig.WriteCSV(out); err != nil {
			t.Fatal(err)
		}
		if *update {
			continue
		}
		name := fig.ID + ".csv"
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s (re-run with -update only for a deliberate virtual-time change):\n--- got\n%s--- want\n%s",
				name, filepath.Join(golden, name), got, want)
		}
	}
}
