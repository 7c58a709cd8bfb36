// Package nativecodes checks error-code sourcing across the ABI
// surfaces. The whole point of the repo's cross-ABI recovery story is
// that MPICH, Open MPI, and the standard ABI disagree about the
// integer values of MPI_ERR_PROC_FAILED and MPI_ERR_REVOKED (71/72 vs
// 54/56 vs the standard's fixed classes), and that the translation
// happens in exactly one place — the abi.Codes table of each dialect
// (abi.Std, mpich.Dialect, openmpi.Dialect), which serves both
// directions of MPI_Error_class, and the abi.ErrClass constants. A
// function on an ABI surface that returns a bare integer literal as an
// error code re-encodes that knowledge in a second place, silently wrong
// for every other ABI.
//
// The checker works per function: a result slot is an error-code slot
// if its type is abi.ErrClass, or if some return statement fills it
// from an error-shaped expression (an identifier or selector named
// Err* or Success, or any expression already typed abi.ErrClass). Once
// a slot is known to carry codes, every return filling it with an
// integer literal is reported. Test files are exempt: tests pin native
// values on purpose.
package nativecodes

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the nativecodes checker.
var Analyzer = &analysis.Analyzer{
	Name:            "nativecodes",
	Doc:             "check that ABI-surface error codes come from Codes tables or abi.ErrClass, never integer literals",
	Run:             run,
	IgnoreTestFiles: true,
}

// abiPkgs are the package suffixes forming the ABI surfaces.
var abiPkgs = []string{
	"internal/abi",
	"internal/mpich",
	"internal/openmpi",
	"internal/stdabi",
	"internal/mpicore",
	"internal/mukautuva",
	"internal/wi4mpi",
	"internal/mana",
}

func run(pass *analysis.Pass) error {
	if !onSurface(pass.Pkg) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fn.Body != nil && fn.Type.Results != nil {
				checkFunc(pass, fn)
			}
			return false
		})
	}
	return nil
}

func onSurface(pkg *types.Package) bool {
	for _, s := range abiPkgs {
		if analysis.PkgPathIs(pkg, s) {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	nres := 0
	for _, fld := range fn.Type.Results.List {
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		nres += n
	}

	// Collect the full returns; bare `return` with named results carries
	// no expressions to judge.
	var returns []*ast.ReturnStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // different signature, different slots
		case *ast.ReturnStmt:
			if len(n.Results) == nres {
				returns = append(returns, n)
			}
		}
		return true
	})

	// Decide which slots carry error codes.
	codeSlot := make([]bool, nres)
	i := 0
	for _, fld := range fn.Type.Results.List {
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		isClass := false
		if t := info.TypeOf(fld.Type); t != nil {
			isClass = analysis.NamedTypeIs(t, "internal/abi", "ErrClass")
		}
		for k := 0; k < n; k++ {
			codeSlot[i+k] = isClass
		}
		i += n
	}
	for _, ret := range returns {
		for i, r := range ret.Results {
			if errorShaped(info, r) {
				codeSlot[i] = true
			}
		}
	}

	for _, ret := range returns {
		for i, r := range ret.Results {
			if codeSlot[i] && isIntLiteral(info, r) {
				pass.Reportf(r.Pos(), "error code returned as integer literal: native values differ per ABI (MPICH 71/72, Open MPI 54/56); source it from the implementation's Codes table or an abi.ErrClass constant")
			}
		}
	}
}

// errorShaped reports whether e visibly carries an error code: a name
// like ErrComm or Success, a Codes-table field, or anything typed
// abi.ErrClass.
func errorShaped(info *types.Info, e ast.Expr) bool {
	e = analysis.Unparen(e)
	if t := info.TypeOf(e); t != nil && analysis.NamedTypeIs(t, "internal/abi", "ErrClass") {
		return true
	}
	name := ""
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.CallExpr:
		// A conversion or translator call whose operand is error-shaped
		// (int32(p.E.ErrComm), CodeOf(abi.ErrRevoked)).
		for _, a := range e.Args {
			if errorShaped(info, a) {
				return true
			}
		}
		return false
	}
	return strings.HasPrefix(name, "Err") || name == "Success"
}

// isIntLiteral matches an integer literal through parens, unary +/-,
// and type conversions: 71, -(2), int32(54), ErrClass(17). Ordinary
// calls taking a literal are not matched — only conversions.
func isIntLiteral(info *types.Info, e ast.Expr) bool {
	switch e := analysis.Unparen(e).(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return isIntLiteral(info, e.X)
		}
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
				return isIntLiteral(info, e.Args[0])
			}
		}
	}
	return false
}
