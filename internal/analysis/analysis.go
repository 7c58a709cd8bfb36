// Package analysis is the runtime's static-analysis framework: a small,
// dependency-free re-statement of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic) plus the //mpivet:allow suppression
// directive shared by every checker and the cmd/mpivet driver.
//
// The checkers built on it (envlifetime, sendowned, parksafe,
// nativecodes, walltime, deadexport) machine-enforce contracts the
// compiler cannot see and the paper's results depend on: pooled-envelope
// ownership, SendOwned transfer semantics, fiber park safety,
// native-error-code sourcing across ABI surfaces, determinism of
// everything that feeds serialized reports, and no export carried for
// tests alone. Each invariant is today documented in comments and
// enforced by differential tests; mpivet makes violating one a vet-time
// failure instead of a 4096-rank debug session.
//
// The analyzers sit beside the README's layer diagram rather than in
// it: they audit the fabric, mpicore and scenario rows from outside,
// guarding the determinism and overhead-attribution claims of Section 5.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Exactly one of Run and
// RunProgram is set: Run checks a single package at a time, RunProgram
// sees every loaded package at once (needed for cross-package
// reachability, e.g. parksafe's fiber call graph).
type Analyzer struct {
	Name string
	Doc  string

	// Run checks one package.
	Run func(*Pass) error
	// RunProgram checks the whole program (all loaded packages).
	RunProgram func([]*Pass) error

	// IgnoreTestFiles excludes _test.go files from this analyzer's
	// scope. Used by checkers whose rule is deliberately violated by
	// tests (nativecodes: tests pin literal native values; walltime:
	// tests measure wall time legitimately).
	IgnoreTestFiles bool
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Allows holds the package's parsed mpivet:allow directives. Most
	// analyzers never look: the driver filters reports afterwards. The
	// transitive ones (parksafe) consult Allowed while gathering facts,
	// so that suppressing a provably-safe blocking site also clears the
	// may-park closure built on top of it — otherwise one directive
	// would demand echo directives up every caller chain.
	Allows []*Allow

	diagnostics []Diagnostic
}

// Allowed reports whether a directive for this pass's analyzer covers
// pos.
func (p *Pass) Allowed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	for _, a := range p.Allows {
		if a.Covers(p.Analyzer.Name, position.Filename, position.Line) {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostics returns the findings recorded so far, with findings in
// files the analyzer excludes (IgnoreTestFiles) dropped.
func (p *Pass) Diagnostics() []Diagnostic {
	var out []Diagnostic
	for _, d := range p.diagnostics {
		file := p.Fset.Position(d.Pos).Filename
		if p.Analyzer.IgnoreTestFiles && strings.HasSuffix(file, "_test.go") {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ---- //mpivet:allow directives ----

// DirectivePrefix introduces a suppression comment:
//
//	//mpivet:allow <analyzer>[,<analyzer>...] -- <justification>
//
// A trailing directive suppresses findings on its own line; a directive
// alone on a line suppresses the next line; a directive in a function's
// doc comment suppresses the named analyzers for the whole function
// body. The justification is mandatory: a directive without one is
// itself reported, so every suppression in the tree carries a written
// reason.
const DirectivePrefix = "//mpivet:allow"

// An Allow is one parsed directive.
type Allow struct {
	Analyzers []string
	Reason    string
	Pos       token.Pos
	// FromLine..ToLine is the suppressed line range, inclusive.
	FromLine, ToLine int
	File             string
}

// Covers reports whether the directive suppresses analyzer findings at
// the given file line.
func (a *Allow) Covers(analyzer, file string, line int) bool {
	if a.File != file || line < a.FromLine || line > a.ToLine {
		return false
	}
	for _, n := range a.Analyzers {
		if n == analyzer {
			return true
		}
	}
	return false
}

// ParseAllows extracts every mpivet:allow directive from the files and
// validates it: a missing justification or a name not in known (so a
// typo cannot silently suppress nothing) is returned as a problem
// diagnostic in its own right.
func ParseAllows(fset *token.FileSet, files []*ast.File, src map[string][]byte, known map[string]bool) (allows []*Allow, problems []Diagnostic) {
	for _, f := range files {
		fileName := fset.Position(f.Pos()).Filename
		lines := strings.Split(string(src[fileName]), "\n")
		// Map func bodies for doc-comment scoping.
		type span struct{ from, to int }
		var funcSpans []struct {
			doc  *ast.CommentGroup
			span span
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			funcSpans = append(funcSpans, struct {
				doc  *ast.CommentGroup
				span span
			}{fd.Doc, span{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}})
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //mpivet:allowed — not ours
				}
				names, reason, ok := splitDirective(rest)
				if !ok || len(names) == 0 {
					problems = append(problems, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "mpivet",
						Message:  "malformed mpivet:allow directive: want //mpivet:allow <analyzer>[,<analyzer>] -- <justification>",
					})
					continue
				}
				if reason == "" {
					problems = append(problems, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "mpivet",
						Message:  "mpivet:allow directive is missing its justification (append: -- <reason>)",
					})
					continue
				}
				bad := false
				for _, n := range names {
					if known != nil && !known[n] {
						problems = append(problems, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "mpivet",
							Message:  fmt.Sprintf("mpivet:allow names unknown analyzer %q", n),
						})
						bad = true
					}
				}
				if bad {
					continue
				}
				pos := fset.Position(c.Pos())
				a := &Allow{Analyzers: names, Reason: reason, Pos: c.Pos(), File: fileName}
				// Doc-comment directive: scope to the whole function.
				scoped := false
				for _, fs := range funcSpans {
					if within(c.Pos(), fs.doc) {
						a.FromLine, a.ToLine = fs.span.from, fs.span.to
						scoped = true
						break
					}
				}
				if !scoped {
					if onlyCommentOnLine(lines, pos.Line, pos.Column) {
						a.FromLine, a.ToLine = pos.Line+1, pos.Line+1
					} else {
						a.FromLine, a.ToLine = pos.Line, pos.Line
					}
				}
				allows = append(allows, a)
			}
		}
	}
	return allows, problems
}

func within(pos token.Pos, cg *ast.CommentGroup) bool {
	return pos >= cg.Pos() && pos <= cg.End()
}

// onlyCommentOnLine reports whether the comment starting at col on the
// 1-based line has nothing but whitespace before it — i.e. it is a
// standalone directive that applies to the following line rather than a
// trailing one applying to its own.
func onlyCommentOnLine(lines []string, line, col int) bool {
	if line-1 < 0 || line-1 >= len(lines) {
		return false
	}
	prefix := lines[line-1]
	if col-1 < len(prefix) {
		prefix = prefix[:col-1]
	}
	return strings.TrimSpace(prefix) == ""
}

func splitDirective(rest string) (names []string, reason string, ok bool) {
	rest = strings.TrimSpace(rest)
	namePart := rest
	if i := strings.Index(rest, "--"); i >= 0 {
		namePart = strings.TrimSpace(rest[:i])
		reason = strings.TrimSpace(rest[i+2:])
	}
	if namePart == "" {
		return nil, reason, false
	}
	for _, n := range strings.Split(namePart, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, reason, false
		}
		names = append(names, n)
	}
	return names, reason, true
}

// Filter drops diagnostics covered by an allow directive and returns the
// survivors sorted by position. Directive problems (missing reason,
// unknown analyzer) are appended as findings in their own right.
func Filter(fset *token.FileSet, diags []Diagnostic, allows []*Allow, problems []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, a := range allows {
			if a.Covers(d.Analyzer, pos.Filename, pos.Line) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	out = append(out, problems...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}
