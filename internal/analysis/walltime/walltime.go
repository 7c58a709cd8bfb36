// Package walltime is the determinism lint. The runtime's equivalence
// results rest on bit-identical replay: the same seed and scenario must
// produce the same event order, the same recovery decisions, and the
// same scenario hash on every run. Three things silently break that —
// wall-clock reads, the process-global math/rand source, and Go's
// randomized map iteration order feeding anything serialized. The
// checker forbids all three in the deterministic core (mpicore, fabric,
// ulfm, simnet, scenario, trace — traces are byte-deterministic, so the
// trace writer is held to the same bar).
//
// Map iteration is only flagged when the loop body is order-sensitive:
// appending to a slice that is not sorted afterwards in the same
// function, writing to an output stream, or concatenating strings.
// Commutative folds (map/index writes, numeric accumulation, deletes)
// iterate in any order to the same result and pass silently.
//
// Test files are exempt (tests may time themselves), and legitimately
// wall-clock sites — the scenario engine's wall_ms reporting field —
// carry //mpivet:allow directives with their justification.
package walltime

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the walltime checker.
var Analyzer = &analysis.Analyzer{
	Name:            "walltime",
	Doc:             "check the deterministic core for wall-clock reads, global math/rand, and order-sensitive map iteration",
	Run:             run,
	IgnoreTestFiles: true,
}

// deterministicPkgs are the package suffixes whose behavior must replay
// bit-identically from a seed.
var deterministicPkgs = []string{
	"internal/mpicore",
	"internal/fabric",
	"internal/ulfm",
	"internal/simnet",
	"internal/scenario",
	"internal/trace",
}

// wallFuncs are the time package functions that read or depend on the
// wall clock / monotonic clock.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// seededCtors are the math/rand package functions that are fine: they
// construct or parameterize an explicit source instead of drawing from
// the process-global one.
var seededCtors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) error {
	deterministic := false
	for _, s := range deterministicPkgs {
		if analysis.PkgPathIs(pass.Pkg, s) {
			deterministic = true
			break
		}
	}
	if !deterministic {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := analysis.Callee(info, n)
			if callee == nil {
				return true
			}
			if callee.Pkg() != nil && callee.Pkg().Path() == "time" && wallFuncs[callee.Name()] {
				pass.Reportf(n.Pos(), "wall-clock time.%s in the deterministic core: replay and scenario hashes must depend only on the seed, never on wall time", callee.Name())
			}
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() == nil &&
				callee.Pkg() != nil && callee.Pkg().Path() == "math/rand" && !seededCtors[callee.Name()] {
				pass.Reportf(n.Pos(), "global math/rand.%s draws from the process-wide source: use the world's seeded *rand.Rand so runs replay from the seed", callee.Name())
			}
		case *ast.RangeStmt:
			checkMapRange(pass, fn, n)
		}
		return true
	})
}

// checkMapRange flags order-sensitive iteration over a map.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	t := info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var appended []string // keys of slices appended to in the loop
	sensitive := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := analysis.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				fnID, ok := call.Fun.(*ast.Ident)
				if !ok {
					continue
				}
				_, builtin := info.Uses[fnID].(*types.Builtin)
				if fnID.Name == "append" && builtin && i < len(n.Lhs) {
					if key := analysis.ExprKey(info, n.Lhs[i]); key != "" {
						appended = append(appended, key)
					} else if sensitive == "" {
						sensitive = "appends in map order"
					}
				}
			}
			// String concatenation accumulates order-sensitively.
			if n.Tok == token.ADD_ASSIGN {
				for _, lhs := range n.Lhs {
					t := info.TypeOf(lhs)
					if t == nil {
						continue
					}
					if bt, ok := t.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 && sensitive == "" {
						sensitive = "concatenates strings in map order"
					}
				}
			}
		case *ast.CallExpr:
			if writesOutput(info, n) && sensitive == "" {
				sensitive = "writes output in map order"
			}
		}
		return true
	})
	if sensitive == "" && len(appended) > 0 {
		for _, key := range appended {
			if !sortedAfter(info, fn, rng, key) {
				sensitive = "appends to a slice that is never sorted"
				break
			}
		}
	}
	if sensitive != "" {
		pass.Reportf(rng.For, "map iteration %s: Go randomizes map order, so serialized output and hashes diverge between runs; sort the keys first", sensitive)
	}
}

// writesOutput matches print/write-style calls whose output would
// expose iteration order.
func writesOutput(info *types.Info, call *ast.CallExpr) bool {
	callee := analysis.Callee(info, call)
	if callee == nil {
		return false
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		switch callee.Name() {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf", "Sprint", "Sprintln", "Sprintf", "Appendf":
			return true
		}
	}
	switch callee.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		return callee.Type().(*types.Signature).Recv() != nil
	}
	return false
}

// sortedAfter reports whether the slice named by key is sorted in fn
// after the range loop ends.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt, key string) bool {
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		callee := analysis.Callee(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		pkg := callee.Pkg().Path()
		isSort := (pkg == "sort" || pkg == "slices") &&
			(callee.Name() == "Slice" || callee.Name() == "SliceStable" ||
				callee.Name() == "Sort" || callee.Name() == "SortFunc" ||
				callee.Name() == "SortStableFunc" || callee.Name() == "Strings" ||
				callee.Name() == "Ints")
		if isSort && analysis.ExprKey(info, call.Args[0]) == key {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}
