// Package load type-checks the module's packages for the mpivet
// analyzers using only the standard library: package metadata and
// export data come from `go list -export -json -deps -test`, sources
// are parsed with go/parser, and imports resolve through the gc
// importer reading the build cache's export files. This is the offline
// subset of golang.org/x/tools/go/packages the analysis suite needs —
// the toolchain image carries no x/tools, so mpivet carries its own
// loader.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// ListPackage is the subset of `go list -json` output the loader uses.
type ListPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	ForTest    string
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the plain import path ("repro/internal/fabric"), with any
	// test-variant decoration stripped; ListPath keeps the decorated
	// form ("repro/internal/fabric [repro/internal/fabric.test]").
	Path     string
	ListPath string
	Name     string
	Dir      string
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info
	// Src holds each file's source bytes, keyed by filename, for
	// directive parsing.
	Src map[string][]byte
}

// Universe is the import-resolution context shared by every typecheck:
// the full `go list -deps` closure with export data.
type Universe struct {
	Dir  string // module root the listing ran in
	Pkgs map[string]*ListPackage
}

// List runs `go list -export -json -deps -test` over patterns in dir and
// returns the universe plus the matched (non-dependency) packages.
func List(dir string, patterns ...string) (*Universe, []*ListPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "-test", "-e"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	u := &Universe{Dir: dir, Pkgs: map[string]*ListPackage{}}
	var targets []*ListPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(ListPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		u.Pkgs[p.ImportPath] = p
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	return u, targets, nil
}

// PlainPath strips the test-variant decoration from a go list import
// path: "p [p.test]" -> "p".
func PlainPath(listPath string) string {
	if i := strings.Index(listPath, " ["); i >= 0 {
		return listPath[:i]
	}
	return listPath
}

// importerFor builds a gc importer resolving through the universe's
// export data, honoring the importing package's ImportMap (which is how
// go list spells "this import resolves to the test variant").
func (u *Universe) importerFor(fset *token.FileSet, p *ListPackage) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if p != nil {
			if m, ok := p.ImportMap[path]; ok {
				path = m
			}
		}
		lp, ok := u.Pkgs[path]
		if !ok || lp.Export == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(lp.Export)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Check type-checks one listed package into the shared fset.
func (u *Universe) Check(fset *token.FileSet, p *ListPackage) (*Package, error) {
	files, src, err := ParseDir(fset, p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	plain := PlainPath(p.ImportPath)
	info := NewInfo()
	conf := types.Config{Importer: u.importerFor(fset, p)}
	tpkg, err := conf.Check(plain, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return &Package{
		Path:     plain,
		ListPath: p.ImportPath,
		Name:     p.Name,
		Dir:      p.Dir,
		Fset:     fset,
		Files:    files,
		Types:    tpkg,
		Info:     info,
		Src:      src,
	}, nil
}

// CheckSource type-checks an ad-hoc package (the analysistest harness's
// testdata packages, which live outside the module's package graph) at
// the given import path. Its imports resolve among the ad-hoc packages
// already checked, local, then through the universe with no ImportMap.
func (u *Universe) CheckSource(path string, fset *token.FileSet, files []*ast.File, src map[string][]byte, local map[string]*types.Package) (*Package, error) {
	info := NewInfo()
	universe := u.importerFor(fset, nil)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := local[path]; p != nil {
			return p, nil
		}
		return universe.Import(path)
	})}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	return &Package{
		Path: path, ListPath: path, Name: name,
		Fset: fset, Files: files, Types: tpkg, Info: info, Src: src,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ParseDir parses the named files of dir, returning ASTs plus raw
// sources keyed by filename.
func ParseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, map[string][]byte, error) {
	var files []*ast.File
	src := map[string][]byte{}
	for _, name := range names {
		fn := name
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(dir, name)
		}
		data, err := os.ReadFile(fn)
		if err != nil {
			return nil, nil, err
		}
		af, err := parser.ParseFile(fset, fn, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: %v", fn, err)
		}
		files = append(files, af)
		src[fn] = data
	}
	return files, src, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// Program loads and type-checks every analyzable package matched by
// patterns. A test-augmented variant ("p [p.test]") compiles the exact
// same non-test files as the plain package plus its _test.go files, so
// when one is present the plain build is skipped and the variant is
// analyzed alone — one pass per package, test files included, no
// duplicated findings. External _test packages are their own entry;
// generated ".test" mains are skipped.
func Program(dir string, patterns ...string) (*Universe, *token.FileSet, []*Package, error) {
	u, targets, err := List(dir, patterns...)
	if err != nil {
		return nil, nil, nil, err
	}
	fset := token.NewFileSet()
	augmented := map[string]bool{}
	for _, t := range targets {
		if t.ForTest != "" && PlainPath(t.ImportPath) == t.ForTest {
			augmented[t.ForTest] = true
		}
	}
	var pkgs []*Package
	for _, t := range targets {
		if strings.HasSuffix(t.ImportPath, ".test") && t.Name == "main" {
			continue // generated test main
		}
		if t.ForTest == "" && augmented[t.ImportPath] {
			continue // superseded by the test-augmented variant
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		p, err := u.Check(fset, t)
		if err != nil {
			return nil, nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return u, fset, pkgs, nil
}
