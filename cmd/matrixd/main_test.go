package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmddocs"
	"repro/internal/scenario"
)

func TestParseRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		err  string
	}{
		{"no store", []string{"-once"}, "-store is required"},
		{"stray arguments", []string{"-store", "d", "extra"}, "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parse(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("parse(%q) = %v, want an error containing %q", tc.args, err, tc.err)
			}
		})
	}
}

// TestOnceOverWarmStore serves a small cell set from a store an
// in-process scenario.Run warmed: matrixd -once completes with no live
// cell and writes the local run's report, wall times and provenance
// aside.
func TestOnceOverWarmStore(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	m := scenario.DefaultMatrix()
	m.Programs, m.Faults = []string{"app.wave"}, nil
	o := scenario.Quick()
	o.Reps = 1
	o.CacheDir = store
	local := scenario.Run(m.Enumerate(), o)
	if local.Failed > 0 {
		t.Fatalf("local run: %d of %d cells failed", local.Failed, local.Scenarios)
	}

	path := filepath.Join(dir, "results.json")
	var out bytes.Buffer
	err := run([]string{"-addr", "127.0.0.1:0", "-store", store, "-once", "-out", path,
		"-apps", "app.wave", "-faults=false", "-reps", "1"}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "provenance: 0 live, ") {
		t.Fatalf("warm matrixd ran cells live:\n%s", out.String())
	}
	served, err := scenario.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripped(t, served), stripped(t, local); got != want {
		t.Fatalf("matrixd report differs from the local run's:\nmatrixd %.2000s\nlocal   %.2000s", got, want)
	}
}

// stripped is a report's JSON without what CI strips before comparing:
// wall times, provenance and cached marks.
func stripped(t *testing.T, rep *scenario.Report) string {
	t.Helper()
	r := *rep
	r.WallMS, r.Provenance = 0, nil
	r.Results = append([]scenario.Result(nil), rep.Results...)
	for i := range r.Results {
		r.Results[i].WallMS, r.Results[i].Cached = 0, false
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestDocsCommandLines parses every documented `go run ./cmd/matrixd`
// line against the flag set run uses, running nothing.
func TestDocsCommandLines(t *testing.T) {
	lines, err := cmddocs.Lines(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, l := range lines {
		if l.Cmd != "matrixd" {
			continue
		}
		if _, err := parse(l.Args, io.Discard); err != nil {
			t.Errorf("%s: go run ./cmd/matrixd %s: %v", l.Pos, strings.Join(l.Args, " "), err)
		}
		parsed++
	}
	if parsed == 0 {
		t.Fatal("found no matrixd command line in the docs; the extraction is broken")
	}
}
