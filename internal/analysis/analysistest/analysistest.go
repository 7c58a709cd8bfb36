// Package analysistest runs one mpivet analyzer over a seeded testdata
// package and checks its findings against `// want "regex"` comments,
// in the manner of golang.org/x/tools/go/analysis/analysistest but on
// the repo's own framework.
//
// Testdata lives at testdata/src/<pkg>/ under the analyzer's package
// directory and is a real, type-checked Go package that may import the
// module (repro/internal/fabric and friends) and the testdata packages
// checked before it; <pkg> doubles as its import path, which is how the path-scoped analyzers (nativecodes,
// walltime) are pointed at their surfaces ("internal/mpich"). Every
// finding must be matched by a want comment on its line and vice versa;
// suppression runs through the production ParseAllows/Filter path, so
// directive tests exercise exactly what cmd/mpivet does.
package analysistest

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

var (
	universeMu  sync.Mutex
	universeVal *load.Universe
	universeErr error
)

// universe lists and caches the module's package graph (with export
// data) once per test binary; the listing runs at the module root so
// every analyzer package shares one build-cache pass.
func universe(t *testing.T) *load.Universe {
	t.Helper()
	universeMu.Lock()
	defer universeMu.Unlock()
	if universeVal == nil && universeErr == nil {
		root, err := moduleRoot()
		if err != nil {
			universeErr = err
		} else {
			// The extra stdlib patterns cover imports testdata packages
			// use that the module itself might not.
			universeVal, _, universeErr = load.List(root, "./...", "time", "math/rand", "sync", "sort", "fmt")
		}
	}
	if universeErr != nil {
		t.Fatalf("analysistest: loading module universe: %v", universeErr)
	}
	return universeVal
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// Run checks analyzer a against testdata/src/<pkg> for each pkg, checked
// in order, so a package may import the ones before it. A whole-program
// analyzer sees them all at once.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	u := universe(t)
	fset := token.NewFileSet()
	local := map[string]*types.Package{}
	src := map[string][]byte{}
	var passes []*analysis.Pass
	var problems []analysis.Diagnostic
	known := map[string]bool{a.Name: true}
	for _, pkg := range pkgs {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			t.Fatalf("analysistest: no Go files in %s", dir)
		}
		files, psrc, err := load.ParseDir(fset, dir, names)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		p, err := u.CheckSource(pkg, fset, files, psrc, local)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		local[pkg] = p.Types
		allows, probs := analysis.ParseAllows(fset, p.Files, p.Src, known)
		problems = append(problems, probs...)
		for f, b := range psrc {
			src[f] = b
		}
		passes = append(passes, &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Allows:    allows,
		})
	}
	switch {
	case a.Run != nil:
		for _, pass := range passes {
			if err := a.Run(pass); err != nil {
				t.Fatalf("analysistest: %s: %v", a.Name, err)
			}
		}
	case a.RunProgram != nil:
		if err := a.RunProgram(passes); err != nil {
			t.Fatalf("analysistest: %s: %v", a.Name, err)
		}
	default:
		t.Fatalf("analysistest: %s has no Run or RunProgram", a.Name)
	}
	var diags []analysis.Diagnostic
	var allows []*analysis.Allow
	for _, pass := range passes {
		diags = append(diags, pass.Diagnostics()...)
		allows = append(allows, pass.Allows...)
	}
	findings := analysis.Filter(fset, diags, allows, problems)

	wants := parseWants(t, src)
	for _, d := range findings {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected finding: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.rx.String())
		}
	}
}

type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// wantRx extracts the quoted patterns after a `// want` marker: either
// "double quoted" (no escapes needed by the suites) or `backquoted`.
var wantRx = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

func parseWants(t *testing.T, src map[string][]byte) []*want {
	t.Helper()
	var out []*want
	files := make([]string, 0, len(src))
	for f := range src {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, fname := range files {
		for i, line := range strings.Split(string(src[fname]), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			rest := line[idx+len("// want "):]
			ms := wantRx.FindAllStringSubmatch(rest, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted pattern)", fname, i+1)
			}
			for _, m := range ms {
				pat := m[1]
				if m[2] != "" {
					pat = m[2]
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", fname, i+1, pat, err)
				}
				out = append(out, &want{file: fname, line: i + 1, rx: rx})
			}
		}
	}
	return out
}

func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.rx.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
