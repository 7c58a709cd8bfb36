// Package envlifetime checks the pooled-Envelope lifecycle contract
// from internal/fabric: an envelope obtained from GetEnvelope is owned
// by exactly one party at a time. PutEnvelope returns it to the pool —
// after which no field may be referenced; Send/SendOwned transfer it to
// the fabric — after which the sender must not Put or reuse it; and an
// envelope a function takes from the pool must leave every return path
// recycled, transferred, or escaped into a longer-lived structure (the
// unexpected queue), never silently dropped.
//
// The checker is an intra-procedural, branch-isolated walk
// (analysis.WalkFlow): state changes inside a branch are visible to
// later statements of that branch, and propagate past it only when
// every surviving branch agrees. That trades missed interprocedural
// bugs for zero tolerance of false positives on the runtime's real
// hot-path idioms (dispatch's per-protocol switch, a decoder's
// error-path unwind, sendInternal's eager/rendezvous split).
package envlifetime

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the envlifetime checker.
var Analyzer = &analysis.Analyzer{
	Name: "envlifetime",
	Doc:  "check pooled fabric.Envelope lifecycle: use-after-Put, double-Put, Put-after-send, leaks, retention by trace emission",
	Run:  run,
}

type ownState uint8

const (
	stLive ownState = iota // usable; fromPool says whether a leak matters
	stPut                  // returned to the pool
	stSent                 // transferred to the fabric
)

type envVar struct {
	name     string
	state    ownState
	fromPool bool   // obtained from GetEnvelope in this function
	how      string // "Send" or "SendOwned" when stSent
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok {
				if fn.Body != nil {
					checkFunc(pass, fn.Type, fn.Body)
				}
				return false // nested literals handled inside checkFunc
			}
			return true
		})
	}
	return nil
}

// checkFunc seeds tracking with *fabric.Envelope parameters (checked
// for reuse-after-release, but not leak-checked: the caller owns them)
// and walks the body.
func checkFunc(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	f := &envFlow{pass: pass, info: pass.TypesInfo, st: map[string]*envVar{}}
	if ft.Params != nil {
		for _, fld := range ft.Params.List {
			for _, name := range fld.Names {
				obj := f.info.Defs[name]
				if obj != nil && isEnvelopePtr(obj.Type()) {
					f.st[analysis.ExprKey(f.info, name)] = &envVar{name: name.Name}
				}
			}
		}
	}
	analysis.WalkFlow(body.List, f)
}

func isEnvelopePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return analysis.NamedTypeIs(p.Elem(), "internal/fabric", "Envelope")
}

// envFlow is the analyzer's branch-isolated state: tracked envelope
// variables by canonical key.
type envFlow struct {
	pass *analysis.Pass
	info *types.Info
	st   map[string]*envVar
}

func (f *envFlow) Clone() analysis.Flow {
	st := make(map[string]*envVar, len(f.st))
	for k, v := range f.st {
		cp := *v
		st[k] = &cp
	}
	return &envFlow{pass: f.pass, info: f.info, st: st}
}

// Merge keeps keys on which every surviving branch agrees; disagreement
// stops tracking (conservative: no reports past the merge).
func (f *envFlow) Merge(branches []analysis.Flow, terminated []bool) {
	var live []*envFlow
	for i, b := range branches {
		if !terminated[i] {
			live = append(live, b.(*envFlow))
		}
	}
	if len(live) == 0 {
		return // every branch leaves the scope; nothing flows past
	}
	for k := range f.st {
		first := live[0].st[k]
		agreed := first != nil
		for _, b := range live[1:] {
			v := b.st[k]
			if v == nil || first == nil || *v != *first {
				agreed = false
				break
			}
		}
		if agreed {
			*f.st[k] = *first
		} else {
			delete(f.st, k)
		}
	}
}

func (f *envFlow) Cond(e ast.Expr) { f.useCheck(e) }

func (f *envFlow) Leaf(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		f.leafAssign(s)
	case *ast.ExprStmt:
		f.leafExpr(s.X)
	case *ast.ReturnStmt:
		f.leafReturn(s)
	case *ast.DeferStmt:
		f.checkDeferredTrace(s.Call)
		// Defers run at an unknowable point in this model; anything a
		// deferred call references leaves leak tracking (a deferred
		// PutEnvelope counts as a release), and reuse state is frozen.
		f.escapeAll(s.Call)
	case *ast.GoStmt:
		f.escapeAll(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					f.leafDecl(vs)
				}
			}
		}
	case *ast.SendStmt:
		f.useCheck(s.Chan)
		f.useCheck(s.Value)
		f.escapeAliases(s.Value)
	case *ast.IncDecStmt:
		f.useCheck(s.X)
	default:
		f.useCheckNode(s)
	}
}

func (f *envFlow) leafDecl(vs *ast.ValueSpec) {
	for _, v := range vs.Values {
		if !f.isGetEnvelope(v) {
			f.useCheck(v)
			f.escapeAliases(v)
		}
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) && f.isGetEnvelope(vs.Values[i]) {
			f.st[analysis.ExprKey(f.info, name)] = &envVar{name: name.Name, fromPool: true}
			continue
		}
		f.untrack(name)
	}
}

func (f *envFlow) leafAssign(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		if f.isGetEnvelope(rhs) {
			continue // a (re)binding, handled below
		}
		f.useCheck(rhs)
		// The value now flows somewhere this model cannot follow.
		f.escapeAliases(rhs)
	}
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		if rhs != nil && f.isGetEnvelope(rhs) {
			if key := analysis.ExprKey(f.info, lhs); key != "" {
				name := key
				if id, ok := lhs.(*ast.Ident); ok {
					name = id.Name
				}
				f.st[key] = &envVar{name: name, fromPool: true}
				continue
			}
		}
		// Rebinding a tracked variable unbinds it; writing THROUGH a
		// tracked envelope (e.Field = x) is a use of it.
		if key := analysis.ExprKey(f.info, lhs); key != "" {
			if _, ok := f.st[key]; ok {
				delete(f.st, key)
				continue
			}
		}
		f.useCheck(lhs)
	}
}

// leafExpr handles the event calls and falls back to a use scan.
func (f *envFlow) leafExpr(e ast.Expr) {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		f.useCheck(e)
		return
	}
	callee := analysis.Callee(f.info, call)
	switch {
	case analysis.IsPkgFunc(callee, "internal/fabric", "PutEnvelope") && len(call.Args) == 1:
		key := analysis.ExprKey(f.info, call.Args[0])
		if v, ok := f.st[key]; ok {
			switch v.state {
			case stPut:
				f.pass.Reportf(call.Pos(), "second PutEnvelope of %s: envelope already returned to the pool", v.name)
			case stSent:
				f.pass.Reportf(call.Pos(), "PutEnvelope of %s after %s handed it to the fabric: the receiver owns it now", v.name, v.how)
			default:
				v.state = stPut
			}
			return
		}
		f.useCheck(call.Args[0])
	case (analysis.IsMethod(callee, "internal/fabric", "Endpoint", "Send") ||
		analysis.IsMethod(callee, "internal/fabric", "Endpoint", "SendOwned")) && len(call.Args) == 1:
		f.useCheck(call.Fun)
		key := analysis.ExprKey(f.info, call.Args[0])
		if v, ok := f.st[key]; ok {
			switch v.state {
			case stPut:
				f.pass.Reportf(call.Pos(), "%s of %s after PutEnvelope returned it to the pool", callee.Name(), v.name)
			case stSent:
				f.pass.Reportf(call.Pos(), "%s already handed to the fabric by %s; an envelope can be sent once", v.name, v.how)
			default:
				v.state = stSent
				v.how = callee.Name()
			}
			return
		}
		f.useCheck(call.Args[0])
	default:
		f.useCheck(e)
		// Trace emission buffers its arguments in a per-rank track until
		// export — long past the PutEnvelope that recycles the struct — so
		// handing an envelope pointer to internal/trace is a retention bug
		// even when the call site looks innocent. Emission sites must pass
		// extracted scalars (src/tag/bytes), never the envelope.
		if callee != nil && analysis.PkgPathIs(callee.Pkg(), "internal/trace") {
			for _, a := range call.Args {
				if t := f.info.TypeOf(a); t != nil && isEnvelopePtr(t) {
					f.pass.Reportf(a.Pos(), "*fabric.Envelope passed to trace %s: trace tracks retain event args past PutEnvelope; pass extracted scalars instead", callee.Name())
				}
			}
		}
		// The callee may retain or recycle envelope arguments.
		for _, a := range call.Args {
			f.escapeAliases(a)
		}
	}
}

func (f *envFlow) leafReturn(s *ast.ReturnStmt) {
	returned := map[string]bool{}
	for _, r := range s.Results {
		f.useCheck(r)
		if key := analysis.ExprKey(f.info, r); key != "" {
			returned[key] = true
		}
		f.escapeAliases(r)
	}
	for key, v := range f.st {
		if v.fromPool && v.state == stLive && !returned[key] {
			f.pass.Reportf(s.Pos(), "envelope %s from GetEnvelope is neither recycled nor handed to the fabric on this return path", v.name)
		}
	}
}

// checkDeferredTrace flags deferred closures that emit trace events
// from a tracked envelope: the defer runs at function exit, after the
// body's PutEnvelope (or Send) released the struct, so the emission
// reads a recycled — possibly re-leased — envelope. Direct
// `defer tr.X(args...)` is safe (Go evaluates the arguments at defer
// time), so only function literals are inspected.
func (f *envFlow) checkDeferredTrace(call *ast.CallExpr) {
	fl, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	tracing := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if callee := analysis.Callee(f.info, c); callee != nil && analysis.PkgPathIs(callee.Pkg(), "internal/trace") {
				tracing = true
				return false
			}
		}
		return true
	})
	if !tracing {
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := f.st[analysis.ExprKey(f.info, id)]; ok {
				f.pass.Reportf(id.Pos(), "deferred trace emission reads envelope %s after this function releases it; capture the scalars before the defer", v.name)
			}
		}
		return true
	})
}

func (f *envFlow) isGetEnvelope(e ast.Expr) bool {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return analysis.IsPkgFunc(analysis.Callee(f.info, call), "internal/fabric", "GetEnvelope")
}

// useCheck reports uses of released/transferred envelopes anywhere in
// the expression, and recurses into function literals with fresh state.
func (f *envFlow) useCheck(e ast.Expr) {
	if e != nil {
		f.useCheckNode(e)
	}
}

func (f *envFlow) useCheckNode(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure may run later: everything it references
			// escapes; its own envelopes are checked independently.
			f.closureEscape(n)
			checkFunc(f.pass, n.Type, n.Body)
			return false
		case *ast.Ident:
			if v, ok := f.st[analysis.ExprKey(f.info, n)]; ok {
				switch v.state {
				case stPut:
					f.pass.Reportf(n.Pos(), "use of %s after PutEnvelope returned it to the pool", v.name)
				case stSent:
					if v.how == "Send" {
						f.pass.Reportf(n.Pos(), "use of %s after Send handed it to the fabric", v.name)
					}
					// SendOwned reuse is the sendowned analyzer's finding.
				}
			}
		}
		return true
	})
}

// escapeAliases stops leak-tracking envelopes whose value flows
// somewhere this model cannot follow (append, struct fields, other
// variables, arbitrary calls). Reuse checks stay active.
func (f *envFlow) escapeAliases(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := f.st[analysis.ExprKey(f.info, id)]; ok {
				v.fromPool = false
			}
		}
		return true
	})
}

func (f *envFlow) escapeAll(n ast.Node) {
	f.useCheckNode(n)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := f.st[analysis.ExprKey(f.info, id)]; ok {
				v.fromPool = false
			}
		}
		return true
	})
}

func (f *envFlow) closureEscape(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := f.st[analysis.ExprKey(f.info, id)]; ok {
				v.fromPool = false
			}
		}
		return true
	})
}

func (f *envFlow) untrack(e ast.Expr) {
	if key := analysis.ExprKey(f.info, e); key != "" {
		delete(f.st, key)
	}
}
