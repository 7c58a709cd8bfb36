package main

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmddocs"
)

// TestCleanPackageExitsZero: simnet, in the deterministic core, passes
// every analyzer silently.
func TestCleanPackageExitsZero(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"repro/internal/simnet"}, &out); err != nil || out.Len() > 0 {
		t.Fatalf("run = %v, output:\n%s", err, out.String())
	}
}

// TestFindingExitsOne: a deterministic-core package that reads the wall
// clock exits 1 with one finding naming its analyzer.
func TestFindingExitsOne(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"./testdata/internal/trace"}, &out); !errors.Is(err, errFindings) {
		t.Fatalf("run = %v, want the findings error (exit 1); output:\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "stamp.go:") || !strings.HasSuffix(lines[0], "(walltime)") {
		t.Fatalf("want one walltime finding in stamp.go, got:\n%s", out.String())
	}
}

// TestDocsCommandLines parses every documented `go run ./cmd/mpivet`
// line against the flag set run uses, loading nothing.
func TestDocsCommandLines(t *testing.T) {
	lines, err := cmddocs.Lines(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, l := range lines {
		if l.Cmd != "mpivet" {
			continue
		}
		if _, err := parse(l.Args, io.Discard); err != nil {
			t.Errorf("%s: go run ./cmd/mpivet %s: %v", l.Pos, strings.Join(l.Args, " "), err)
		}
		parsed++
	}
	if parsed == 0 {
		t.Fatal("found no mpivet command line in the docs; the extraction is broken")
	}
}
