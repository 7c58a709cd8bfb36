// Package sendowned checks fabric.Endpoint.SendOwned's transfer
// contract: SendOwned skips the defensive payload copy, so the moment
// it returns, the envelope AND the backing array of its payload slice
// belong to the receiver. Any later read or write by the sender — of
// the envelope, of the slice that was assigned to its Payload field, or
// of any alias of that slice — races with the receiver and corrupts
// results nondeterministically. This is exactly the bug class the
// collective accumulators avoid by keeping the defensive copy: an
// accumulator the algorithm keeps reducing into must never travel
// through SendOwned.
//
// The checker tracks, per function (analysis.WalkFlow, branch-isolated),
// which expressions alias each envelope's payload: `e.Payload = buf`
// and `buf := e.Payload` both link buf to e. After `ep.SendOwned(e)`,
// a use of e or of any linked alias is reported; re-binding an alias
// variable (`buf = nil`, `s.payload = nil`) is legal and unlinks it.
//
// fabric.Endpoint.Release gives a buffer away the same way — to the
// world's freelist, whose next Alloc or Send hands it to someone else
// — so the same tracking covers it: after `ep.Release(b)`, a use of b, of
// a slice of it taken earlier (`view := b[4:]`), or of the envelope whose
// payload it was, is reported. Re-binding (`b = ep.Alloc(n)`) is legal.
package sendowned

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the sendowned checker.
var Analyzer = &analysis.Analyzer{
	Name: "sendowned",
	Doc:  "check that envelopes and payload slices are never touched after SendOwned transfers ownership, nor buffers after Release",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok {
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	f := &soFlow{
		pass:    pass,
		info:    pass.TypesInfo,
		aliases: map[string]string{},
		sent:    map[string]sentInfo{},
	}
	analysis.WalkFlow(body.List, f)
}

type sentInfo struct {
	name     string // display name of the envelope (or released slice) variable
	released bool   // given away by Endpoint.Release rather than SendOwned
}

// soFlow tracks payload aliasing and transfer state.
//
// aliases maps an expression key (envelope var, alias var, or selector
// chain like "s.payload") to its alias-group id; groups are keyed by
// the envelope variable's key. sent marks groups whose envelope has
// been handed to SendOwned, or whose buffer has been Released (a group
// may then have no envelope: its id is the released slice's key).
type soFlow struct {
	pass    *analysis.Pass
	info    *types.Info
	aliases map[string]string   // expr key -> group id
	sent    map[string]sentInfo // group id -> transfer record
}

func (f *soFlow) Clone() analysis.Flow {
	a := make(map[string]string, len(f.aliases))
	for k, v := range f.aliases {
		a[k] = v
	}
	s := make(map[string]sentInfo, len(f.sent))
	for k, v := range f.sent {
		s[k] = v
	}
	return &soFlow{pass: f.pass, info: f.info, aliases: a, sent: s}
}

func (f *soFlow) Merge(branches []analysis.Flow, terminated []bool) {
	var live []*soFlow
	for i, b := range branches {
		if !terminated[i] {
			live = append(live, b.(*soFlow))
		}
	}
	if len(live) == 0 {
		return
	}
	// Keep alias links and sent marks present in every surviving branch.
	for k, g := range f.aliases {
		for _, b := range live {
			if b.aliases[k] != g {
				delete(f.aliases, k)
				break
			}
		}
	}
	// A transfer in SOME branch poisons the merge only if every
	// surviving branch transferred: otherwise tracking would flag code
	// that is legal on the untransferred path. (A transfer in one arm
	// followed by a use after the merge is real, but flagging it risks
	// false positives on mode-guarded code; the seeded tests pin the
	// in-branch and post-both-branch cases.)
	agreed := map[string]sentInfo{}
	for g, si := range live[0].sent {
		ok := true
		for _, b := range live[1:] {
			if _, has := b.sent[g]; !has {
				ok = false
				break
			}
		}
		if ok {
			agreed[g] = si
		}
	}
	f.sent = agreed
}

func (f *soFlow) Cond(e ast.Expr) { f.scanUse(e) }

func (f *soFlow) Leaf(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		f.leafAssign(s)
	case *ast.ExprStmt:
		f.leafExpr(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.scanUse(r)
		}
	case *ast.DeferStmt:
		f.scanUse(s.Call)
	case *ast.GoStmt:
		f.scanUse(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						f.scanUse(v)
						if i < len(vs.Names) {
							f.link(vs.Names[i], v)
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		f.scanUse(s.Chan)
		f.scanUse(s.Value)
	case *ast.IncDecStmt:
		f.scanUse(s.X)
	default:
		if s != nil {
			f.scanNode(s)
		}
	}
}

func (f *soFlow) leafAssign(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		f.scanUse(rhs)
	}
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		key := analysis.ExprKey(f.info, lhs)
		if g, tracked := f.aliases[key]; key != "" && tracked {
			if _, gone := f.sent[g]; gone && isPayloadSelector(f.info, lhs) {
				// e.Payload = x after transfer writes the envelope.
				f.reportUse(lhs.Pos(), key, g)
			}
			// Re-binding unlinks the alias: the variable now holds a
			// different value (s.payload = nil is the legal pattern).
			delete(f.aliases, key)
		} else {
			// Not a tracked alias itself — but writing through a
			// transferred envelope (e.Tag = 3) is still a use of it.
			f.scanUse(lhs)
		}
		if rhs != nil {
			f.link(lhs, rhs)
		}
	}
}

// link records aliasing created by `lhs = rhs` for the relevant shapes:
//   - lhs is e.Payload (e an envelope) -> rhs joins e's group
//   - rhs is e.Payload                 -> lhs joins e's group
//   - rhs is an existing alias         -> lhs joins its group
func (f *soFlow) link(lhs, rhs ast.Expr) {
	lhsKey := analysis.ExprKey(f.info, lhs)
	rhsKey := analysis.ExprKey(f.info, rhs)
	if lhsKey == "" && rhsKey == "" {
		return
	}
	// e.Payload = rhs
	if base, ok := payloadBase(f.info, lhs); ok {
		g := f.groupOf(base)
		if rhsKey != "" {
			if rg, tracked := f.aliases[rhsKey]; tracked && rg != g {
				// Payload shared between two envelopes: unify.
				for k, kg := range f.aliases {
					if kg == rg {
						f.aliases[k] = g
					}
				}
				if si, was := f.sent[rg]; was {
					f.sent[g] = si
					delete(f.sent, rg)
				}
			}
			f.aliases[rhsKey] = g
		}
		return
	}
	if lhsKey == "" {
		return
	}
	// lhs = e.Payload
	if base, ok := payloadBase(f.info, rhs); ok {
		f.aliases[lhsKey] = f.groupOf(base)
		return
	}
	// lhs = existing alias (slice or envelope copy)
	if g, tracked := f.aliases[rhsKey]; tracked {
		f.aliases[lhsKey] = g
		return
	}
	// lhs = b or b[i:j] for an untracked byte slice b: the two now share a
	// backing array, which matters if either is later Released.
	if base := analysis.ExprKey(f.info, sliceBase(rhs)); base != "" && isByteSlice(f.info, rhs) {
		f.aliases[lhsKey] = f.groupOf(base)
	}
}

// sliceBase strips slicing: b[i:j] shares b's backing array.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		se, ok := analysis.Unparen(e).(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = se.X
	}
}

func isByteSlice(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// leafExpr intercepts SendOwned and Release; other calls get the generic
// scan.
func (f *soFlow) leafExpr(e ast.Expr) {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		f.scanUse(e)
		return
	}
	callee := analysis.Callee(f.info, call)
	if analysis.IsMethod(callee, "internal/fabric", "Endpoint", "SendOwned") && len(call.Args) == 1 {
		f.scanUse(call.Fun)
		arg := call.Args[0]
		key := analysis.ExprKey(f.info, arg)
		if key == "" {
			return
		}
		if g, tracked := f.aliases[key]; tracked {
			if _, already := f.sent[g]; already {
				f.reportUse(arg.Pos(), key, g)
				return
			}
			f.sent[g] = sentInfo{name: exprName(arg)}
			return
		}
		g := f.groupOf(key)
		f.sent[g] = sentInfo{name: exprName(arg)}
		return
	}
	if analysis.IsMethod(callee, "internal/fabric", "Endpoint", "Release") && len(call.Args) == 1 {
		f.scanUse(call.Fun)
		f.scanUse(call.Args[0]) // releasing twice, or after SendOwned, is a use
		arg := sliceBase(call.Args[0])
		if key := analysis.ExprKey(f.info, arg); key != "" {
			f.sent[f.groupOf(key)] = sentInfo{name: exprName(arg), released: true}
		}
		return
	}
	f.scanUse(e)
}

// groupOf returns (creating if needed) the alias group for an envelope
// expression key; the envelope itself is a member of its own group.
func (f *soFlow) groupOf(envKey string) string {
	if g, ok := f.aliases[envKey]; ok {
		return g
	}
	f.aliases[envKey] = envKey
	return envKey
}

// scanUse reports reads/writes of transferred envelopes or payload
// aliases inside e. Matching is top-down: the widest matching selector
// chain reports once and is not descended into.
func (f *soFlow) scanUse(e ast.Expr) {
	if e != nil {
		f.scanNode(e)
	}
}

func (f *soFlow) scanNode(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFunc(f.pass, n.Body)
			return false
		case *ast.SelectorExpr, *ast.Ident:
			key := analysis.ExprKey(f.info, n.(ast.Expr))
			if key == "" {
				return true
			}
			if g, tracked := f.aliases[key]; tracked {
				if _, gone := f.sent[g]; gone {
					f.reportUse(n.Pos(), key, g)
				}
				return false // widest match only
			}
			_, isSel := n.(*ast.SelectorExpr)
			return isSel // look for shorter chains inside a selector
		}
		return true
	})
}

func (f *soFlow) reportUse(pos token.Pos, key, group string) {
	si := f.sent[group]
	if si.released {
		what := "slice " + si.name
		if key != group {
			what = "alias of " + si.name
		}
		f.pass.Reportf(pos, "%s used after Release returned it to the world's freelist", what)
		return
	}
	what := "payload alias of " + si.name
	if key == group {
		what = "envelope " + si.name
	}
	f.pass.Reportf(pos, "%s used after SendOwned transferred ownership to the receiver", what)
}

// payloadBase matches `<env>.Payload` where <env> is a *fabric.Envelope
// expression with a canonical key, returning the envelope's key.
func payloadBase(info *types.Info, e ast.Expr) (string, bool) {
	sel, ok := analysis.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Payload" {
		return "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil || !analysis.NamedTypeIs(t, "internal/fabric", "Envelope") {
		return "", false
	}
	key := analysis.ExprKey(info, sel.X)
	return key, key != ""
}

func isPayloadSelector(info *types.Info, e ast.Expr) bool {
	_, ok := payloadBase(info, e)
	return ok
}

func exprName(e ast.Expr) string {
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	}
	return "envelope"
}
