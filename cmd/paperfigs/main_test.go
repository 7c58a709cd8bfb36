package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestListCells pins the cell selection -list and -matrix share (the
// full matrix, -cells globs, exact IDs) and the mode checks.
func TestListCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		cells int    // want this many listed cells
		err   string // or an error containing this
	}{
		{"all", []string{"-list"}, 252, ""},
		{"no faults", []string{"-list", "-faults=false"}, 114, ""},
		{"node-crash", []string{"-list", "-cells", "*!node-crash"}, 24, ""},
		{"recovery demo", []string{"-list", "-apps", "app.wave", "-cells", "*!node-crash,*~shrink,*~replicate"}, 30, ""},
		{"exact id", []string{"-list", "-cells", "app.comd/mpich+native+none!rank-crash~shrink"}, 1, ""},
		{"exact plain id", []string{"-list", "-cells", "app.wave/mpich+native+none"}, 1, ""},
		{"literal dot", []string{"-list", "-cells", "app.wave/mpich+native+non."}, 0, "matches no cell"},
		{"no match", []string{"-list", "-cells", "*!node-crash,app.nope/*"}, 0, `"app.nope/*" matches no cell`},
		{"cells with remote", []string{"-matrix", "-remote", "http://127.0.0.1:1", "-cells", "*"}, 0, "do not apply to -remote"},
		{"images with remote", []string{"-matrix", "-remote", "http://127.0.0.1:1", "-images", "d"}, 0, "do not apply to -remote"},
		{"images without matrix", []string{"-list", "-images", "d"}, 0, "-images requires -matrix"},
		{"cells without matrix", []string{"-fig", "2", "-cells", "*"}, 0, "require -matrix"},
		{"positional", []string{"-list", "extra"}, 0, "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			want := fmt.Sprintf("%d cells", tc.cells)
			if last := lines[len(lines)-1]; last != want || len(lines) != tc.cells+2 {
				t.Fatalf("listed %d rows ending %q, want %q", len(lines)-2, last, want)
			}
		})
	}
}

// TestMatrixOneCell runs one cross-implementation restart cell through
// -matrix with -images and -trace: the report holds exactly that cell,
// its image set lands where the lineage says, and its trace is written.
func TestMatrixOneCell(t *testing.T) {
	dir := t.TempDir()
	const id = "app.wave/openmpi+mukautuva+mana>mpich+mukautuva"
	report := filepath.Join(dir, "report.json")
	images, traces := filepath.Join(dir, "images"), filepath.Join(dir, "traces")
	var out bytes.Buffer
	err := run([]string{"-matrix", "-cells", id, "-nodes", "1", "-rpn", "2", "-reps", "1",
		"-parallel", "1", "-images", images, "-trace", traces, "-out", report}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	rep, err := scenario.ReadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != 1 || rep.Passed != 1 || rep.Results[0].ID != id || len(rep.Results[0].Lineage) != 1 {
		t.Fatalf("report = %d scenarios, %d pass, results %+v", rep.Scenarios, rep.Passed, rep.Results)
	}
	if _, err := os.Stat(filepath.Join(images, rep.Results[0].Lineage[0].Dir, "meta.gob")); err != nil {
		t.Errorf("image set not kept under -images: %v", err)
	}
	if _, err := os.Stat(filepath.Join(traces, scenario.TraceFileName(id))); err != nil {
		t.Errorf("trace not written under -trace: %v", err)
	}
}
