package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/wavempi"
	"repro/internal/core"
	"repro/internal/dmtcp"
	"repro/internal/simnet"
)

// checkpointWave writes a real 4-rank image set: app.wave under Open MPI +
// Mukautuva + MANA, checkpointed at its first safe point.
func checkpointWave(t *testing.T) string {
	t.Helper()
	stack := core.DefaultStack(core.ImplOpenMPI, core.ABIMukautuva, core.CkptMANA)
	stack.Net = simnet.SingleNode(4)
	dir := filepath.Join(t.TempDir(), "images")
	job, err := core.Launch(stack, "app.wave", core.WithHold(), core.WithConfigure(func(_ int, p core.Program) {
		w := p.(*wavempi.Wave)
		w.Steps, w.GlobalPoints = 10, 256
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
	return dir
}

func output(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("manactl %v: %v", args, err)
	}
	return out.String()
}

func TestInspectRealImageSet(t *testing.T) {
	dir := checkpointWave(t)

	info := output(t, "info", dir)
	for _, want := range []string{
		"ranks:          4\n",
		"implementation: openmpi\n",
		"standard ABI:   true\n",
		"program:        app.wave\n",
		"step:           1\n",
		"restartable:    under any standard-ABI implementation\n",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("info output lacks %q:\n%s", want, info)
		}
	}

	// ranks: one row per rank, carrying the header fields and both section
	// sizes exactly as a full read of the image reports them.
	listing := output(t, "ranks", dir)
	rows := strings.Split(strings.TrimSpace(listing), "\n")
	if len(rows) != 5 || !strings.Contains(rows[0], "state(B)") || !strings.Contains(rows[0], "blob(B)") {
		t.Fatalf("ranks output:\n%s", listing)
	}
	for r := 0; r < 4; r++ {
		img, err := dmtcp.ReadRankImage(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		// 64 points per rank and two time levels: the state is mostly raw
		// float64s, and MANA always has recorded state to save.
		if len(img.ProgState) < 2*64*8 || len(img.PluginBlob) == 0 {
			t.Fatalf("rank %d image: %d state bytes, %d blob bytes", r, len(img.ProgState), len(img.PluginBlob))
		}
		want := []string{
			fmt.Sprint(r), "1", fmt.Sprintf("%.3fms", float64(img.Clock)/1e6),
			fmt.Sprint(len(img.ProgState)), fmt.Sprint(len(img.PluginBlob)),
		}
		if got := strings.Fields(rows[r+1]); !slices.Equal(got, want) {
			t.Errorf("rank %d row = %v, want %v", r, got, want)
		}
	}

	// The listing comes from headers and trailers alone: scrambling a
	// state section (sizes intact) changes nothing, because nothing
	// decodes it.
	path := filepath.Join(dir, "rank_0001.img")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 16 - 512; i < len(data)-16; i++ {
		data[i] ^= 0xa5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if again := output(t, "ranks", dir); again != listing {
		t.Errorf("ranks output changed with the state bytes:\n%s\nvs\n%s", again, listing)
	}

	// blob still decodes MANA's gob state out of the image.
	blob := output(t, "blob", dir, "0")
	for _, want := range []string{"rank 0 MANA state:", "next virtual id:", "event log:", "p2p sent:        1 messages", "drained in-flight messages: 0 (0 bytes)"} {
		if !strings.Contains(blob, want) {
			t.Errorf("blob output lacks %q:\n%s", want, blob)
		}
	}
}

func TestErrorsAreReported(t *testing.T) {
	dir := checkpointWave(t)
	for _, args := range [][]string{nil, {"ranks"}, {"blob", dir}, {"frobnicate", dir}} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("manactl %v: %v, want the usage error", args, err)
		}
	}
	if err := run([]string{"info", filepath.Join(dir, "absent")}, &bytes.Buffer{}); err == nil {
		t.Error("info on a missing directory succeeded")
	}
	// A truncated image is named as such, by both commands that open it.
	path := filepath.Join(dir, "rank_0002.img")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-20); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"ranks", dir}, {"blob", dir, "2"}} {
		if err := run(args, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "end marker") {
			t.Errorf("manactl %v on a truncated image: %v", args, err)
		}
	}
}
