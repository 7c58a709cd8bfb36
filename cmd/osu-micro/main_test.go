package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the CLI in-process on a 2x2 world: one table row
// per size with a positive latency, and both profiles written.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var out bytes.Buffer
	err := run([]string{
		"-bench", "allreduce", "-impl", "openmpi", "-abi", "mukautuva", "-ckpt", "mana",
		"-nodes", "2", "-rpn", "2", "-max-size", "4", "-iters", "2", "-warmup", "1",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 || !strings.Contains(lines[0], "MPI_Allreduce") || !strings.Contains(lines[1], "4 ranks (2x2)") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	for i, want := range []string{"1", "2", "4"} {
		f := strings.Fields(lines[3+i])
		if len(f) != 2 || f[0] != want || f[1] == "0.00" || strings.HasPrefix(f[1], "-") {
			t.Errorf("row %d = %q, want size %s and a positive latency", i, lines[3+i], want)
		}
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", filepath.Base(p), err)
		}
	}
}

func TestRunRejectsBadStack(t *testing.T) {
	if err := run([]string{"-impl", "lam"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown implementation accepted")
	}
}
