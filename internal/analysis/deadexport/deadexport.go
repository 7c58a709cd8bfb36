// Package deadexport is the prune lint. An exported function or method
// that no non-test file of the module references is code the module
// carries for its tests alone; it is deleted, with its test-only uses
// rewritten, or it carries a directive naming the caller mpivet cannot
// see (the benchmark in bench/, its own module) or the test-facing
// capability it serves.
//
// Two kinds of export count as referenced without a call site:
//   - a method that implements a method of an interface type declared
//     or used in the loaded program, or of error or fmt.Stringer, since
//     an interface call names no concrete method;
//   - an export of a test-support package, one that only _test.go files
//     import (abitest, fabrictest, analysistest, cmddocs).
//
// The check sees every loaded package at once, so it means something
// only over the whole module: cmd/mpivet runs it for ./... alone.
// Packages type-check separately, so an object is keyed by its full name
// (package path, receiver and name), the same whichever package imports it.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the deadexport checker.
var Analyzer = &analysis.Analyzer{
	Name:       "deadexport",
	Doc:        "flag exported functions and methods that no non-test file of the module references",
	RunProgram: run,
}

func isTest(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

func run(passes []*analysis.Pass) error {
	if len(passes) == 0 {
		return nil
	}
	fset := passes[0].Fset // the passes share one file set
	used := map[string]bool{}
	testImported, importedByCode := map[string]bool{}, map[string]bool{}
	x := newImplIndex(fset)
	for _, pass := range passes {
		for _, f := range pass.Files {
			imported := importedByCode
			if isTest(fset, f.Pos()) {
				imported = testImported
			}
			for _, spec := range f.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil {
					imported[path] = true
				}
			}
		}
		for id, obj := range pass.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok && !isTest(fset, id.Pos()) {
				used[fn.Origin().FullName()] = true
			}
		}
		for _, objs := range []map[*ast.Ident]types.Object{pass.TypesInfo.Defs, pass.TypesInfo.Uses} {
			for id, obj := range objs {
				if obj != nil && !isTest(fset, id.Pos()) {
					x.add(obj.Type())
				}
			}
		}
		for e, tv := range pass.TypesInfo.Types {
			if !isTest(fset, e.Pos()) {
				x.add(tv.Type)
			}
		}
	}
	x.markImplemented(used)

	for _, pass := range passes {
		path := pass.Pkg.Path()
		if testImported[path] && !importedByCode[path] {
			continue // a test-support package
		}
		for _, f := range pass.Files {
			if isTest(fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && !used[fn.FullName()] {
					pass.Reportf(fd.Name.Pos(), "%s is exported but no non-test file of the module references it", fn.FullName())
				}
			}
		}
	}
	return nil
}

// implIndex gathers what non-test code declares or handles: the
// interfaces with methods, by method name, and the named types declared
// outside tests, by full name.
type implIndex struct {
	fset   *token.FileSet
	seen   map[types.Type]bool
	named  map[string]types.Type
	byName map[string][]*types.Interface
}

// newImplIndex starts from error and fmt.Stringer, which any value may
// reach through the standard library.
func newImplIndex(fset *token.FileSet) *implIndex {
	x := &implIndex{fset: fset, seen: map[types.Type]bool{}, named: map[string]types.Type{},
		byName: map[string][]*types.Interface{}}
	x.add(types.Universe.Lookup("error").Type())
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	x.add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil).Complete())
	return x
}

// add records t, and the types a signature's parameters and results
// name, which is where a call converts a concrete argument to an
// interface the caller never spells.
func (x *implIndex) add(t types.Type) {
	if t == nil || x.seen[t] {
		return
	}
	x.seen[t] = true
	if n, ok := t.(*types.Named); ok && !isTest(x.fset, n.Obj().Pos()) {
		x.named[types.TypeString(n, nil)] = n
	}
	switch u := t.Underlying().(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				x.add(tup.At(i).Type())
			}
		}
	case *types.Pointer:
		x.add(u.Elem())
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			name := u.Method(i).Name()
			x.byName[name] = append(x.byName[name], u)
		}
	}
}

// markImplemented marks, as used, each method by which a named type
// satisfies a recorded interface, directly or through an embedded field.
// Packages type-check separately, so a type and an interface may come
// from different checks: methods match by name and by signature with
// the parameter names left out.
func (x *implIndex) markImplemented(used map[string]bool) {
	for _, t := range x.named {
		if types.IsInterface(t) {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < mset.Len(); i++ {
			for _, it := range x.byName[mset.At(i).Obj().Name()] {
				if implements(mset, it) {
					used[mset.At(i).Obj().(*types.Func).Origin().FullName()] = true
					break
				}
			}
		}
	}
}

func implements(mset *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := mset.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigKey(sel.Type()) != sigKey(m.Type()) {
			return false
		}
	}
	return true
}

// sigKey spells a signature by its parameter and result types alone.
func sigKey(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
