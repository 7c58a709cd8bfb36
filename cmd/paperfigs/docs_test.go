package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmddocs"
)

// TestDocsCommandLines holds the documentation to the command line that
// exists: every `go run ./cmd/<name> …` in README.md, REPRODUCING.md,
// docs/*.md and the verify skill must name a directory under cmd/, and
// every paperfigs invocation must parse against the flag set and mode
// checks run uses. Nothing is run. (cmd/matrixd holds its own lines to
// its parser the same way.)
func TestDocsCommandLines(t *testing.T) {
	root := filepath.Join("..", "..")
	lines, err := cmddocs.Lines(root)
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, l := range lines {
		if fi, err := os.Stat(filepath.Join(root, "cmd", l.Cmd)); err != nil || !fi.IsDir() {
			t.Errorf("%s: go run ./cmd/%s: no such command under cmd/", l.Pos, l.Cmd)
			continue
		}
		if l.Cmd != "paperfigs" {
			continue
		}
		if _, err := parse(l.Args, io.Discard); err != nil {
			t.Errorf("%s: go run ./cmd/paperfigs %s: %v", l.Pos, strings.Join(l.Args, " "), err)
		}
		parsed++
	}
	if parsed < 20 {
		t.Fatalf("found only %d paperfigs command lines in the docs; the extraction is broken", parsed)
	}
}
