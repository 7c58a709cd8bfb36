package dmtcp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/comd"
	"repro/internal/apps/wavempi"
	"repro/internal/core"
	"repro/internal/dmtcp"
	"repro/internal/simnet"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite FuzzRankImageDecode's seed corpus from freshly checkpointed applications")

const corpusDir = "testdata/fuzz/FuzzRankImageDecode"

// checkpointRank0 runs app on two ranks under stack, checkpoints at the
// first safe point and returns rank 0's image file.
func checkpointRank0(t *testing.T, app string, stack core.Stack) []byte {
	t.Helper()
	stack.Net = simnet.SingleNode(2)
	dir := t.TempDir()
	job, err := core.Launch(stack, app, core.WithHold(), core.WithConfigure(func(_ int, p core.Program) {
		switch v := p.(type) {
		case *wavempi.Wave:
			v.Steps, v.GlobalPoints = 10, 128
		case *comd.CoMD:
			v.Steps, v.ParticlesPerRank = 10, 12
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := job.CheckpointAsync(dir, true)
	job.Start()
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "rank_0000.img"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The seed corpus is real images, so it has to be in the format this build
// writes: a format change that forgets to regenerate it fails here rather
// than leaving the fuzzer to start from bytes that no longer decode.
func TestFuzzCorpusHoldsRealImages(t *testing.T) {
	if *updateCorpus {
		old, _ := filepath.Glob(filepath.Join(corpusDir, "*"))
		for _, f := range old {
			os.Remove(f)
		}
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, app := range []string{"app.wave", "app.comd"} {
			for _, stack := range []core.Stack{
				core.DefaultStack(core.ImplMPICH, core.ABIMukautuva, core.CkptMANA),
				core.DefaultStack(core.ImplOpenMPI, core.ABINative, core.CkptDMTCP),
			} {
				img := checkpointRank0(t, app, stack)
				name := fmt.Sprintf("%s-%s-%s-%s", app, stack.Impl, stack.ABI, stack.Ckpt)
				seeds := map[string][]byte{
					"real-" + name:       img,
					"cut-header-" + name: img[:40],
					"cut-half-" + name:   img[:len(img)/2],
					"cut-marker-" + name: img[:len(img)-8],
				}
				for file, data := range seeds {
					entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
					if err := os.WriteFile(filepath.Join(corpusDir, file), []byte(entry), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
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
				t.Errorf("%s no longer decodes (%v): regenerate with go test ./internal/dmtcp -run FuzzCorpus -update-corpus", base, err)
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
