package dmtcp_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dmtcp"
)

const corpusDir = "testdata/fuzz/FuzzRankImageDecode"

// The seed corpus is real images, so it has to be in the format this build
// writes: a format change that forgets to regenerate it fails here rather
// than leaving the fuzzer to start from bytes that no longer decode.
func TestFuzzCorpusHoldsRealImages(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	real := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte corpus entry", f)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(body, ")\n"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "rank_0000.img"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		img, err := dmtcp.ReadRankImage(dir, 0)
		switch base := filepath.Base(f); {
		case strings.HasPrefix(base, "real-"):
			real++
			if err != nil || len(img.ProgState) == 0 {
				t.Errorf("%s no longer decodes (%v): replace it with a rank_0000.img this build wrote (crossckpt -dir keeps image sets)", base, err)
			}
		case strings.HasPrefix(base, "cut-"):
			if err == nil {
				t.Errorf("%s: truncated image decoded", base)
			}
		}
	}
	if real != 4 {
		t.Fatalf("corpus holds %d real images, want 4 (two applications under two stacks)", real)
	}
}
