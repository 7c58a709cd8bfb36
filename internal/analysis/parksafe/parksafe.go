// Package parksafe checks the fiber discipline from
// internal/fabric/sched.go: every rank runs as a fiber multiplexed onto
// one scheduler token, and a fiber that blocks in the Go runtime instead
// of parking through (*sched).park stalls the token — every other rank in
// the world stops with it. The rules:
//
//  1. Code reachable from fiber roots — the functions handed to
//     (*World).Spawn or SpawnAll — must not use blocking primitives directly:
//     channel sends/receives, select without default, range over a
//     channel, sync.Cond.Wait, sync.WaitGroup.Wait, time.Sleep.
//  2. A fiber must not hold a mutex across anything that may park:
//     park hands the token to another fiber, and if that fiber needs
//     the mutex the world deadlocks. The runtime's own pattern
//     (mailbox, OOB) is unlock -> park -> relock, and the checker
//     models exactly that sequence.
//
// A fiber is a coroutine: the scheduler pulls each rank's body with
// iter.Pull and park switches back to the carrier through the body's
// yield. The checker therefore knows the primitive itself, not only
// park's name: the function handed to iter.Pull is a fiber root like a
// Spawn argument; a call of its yield parameter — directly, or through a
// variable or field the parameter was stored in, which is how park
// reaches it — is a park; and park's own body is held to rule 2. The
// goroutine that calls the pulled next function (the carrier) is not a
// fiber and may block as it likes.
//
// The call graph is assembled from static calls across every loaded
// package (keys from analysis.FuncKey, so identity survives separate
// type-checker instances); interface calls fan out to every module
// method with the same name and parameter count; `go fn()` targets are
// excluded (a goroutine started by a fiber is not a fiber).
package parksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the parksafe checker. It is program-level: reachability
// from Spawn roots crosses package boundaries.
var Analyzer = &analysis.Analyzer{
	Name:       "parksafe",
	Doc:        "check that fiber-reachable code blocks only via the scheduler and never parks holding a mutex",
	RunProgram: runProgram,
}

type fact struct {
	pos  token.Pos
	what string
}

type funcNode struct {
	key     string
	display string
	pass    *analysis.Pass
	body    *ast.BlockStmt

	edges     []string
	facts     []fact      // direct blocking primitives
	parkCalls []token.Pos // direct (*sched).park calls
	goCalls   map[*ast.CallExpr]bool

	root    string // "" or the Spawn site that makes this a fiber root
	mayPark bool
}

type program struct {
	nodes   map[string]*funcNode
	methods map[string][]string // name|nparams -> concrete method keys
	order   []string            // insertion order, for determinism

	pulled map[*ast.FuncLit]string // iter.Pull arguments: coroutine bodies -> pull site
	yields map[types.Object]bool   // their yield parameters, and whatever those were stored in
}

func runProgram(passes []*analysis.Pass) error {
	p := &program{
		nodes:   map[string]*funcNode{},
		methods: map[string][]string{},
		pulled:  map[*ast.FuncLit]string{},
		yields:  map[types.Object]bool{},
	}
	for _, pass := range passes {
		p.indexPass(pass)
	}
	// Second sweep: scan bodies (needs the full method index for
	// interface fan-out).
	for _, key := range p.order {
		p.scan(p.nodes[key])
	}
	p.fixMayPark()
	p.report()
	return nil
}

// indexPass registers every declared function and method of the pass,
// and its coroutines.
func (p *program) indexPass(pass *analysis.Pass) {
	for _, file := range pass.Files {
		p.indexCoroutines(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			key := analysis.FuncKey(fn)
			p.add(&funcNode{
				key:     key,
				display: displayName(fn),
				pass:    pass,
				body:    fd.Body,
			})
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				mk := methodKey(fn.Name(), sig.Params().Len())
				p.methods[mk] = append(p.methods[mk], key)
			}
		}
	}
}

// indexCoroutines finds the file's iter.Pull(func(yield ...) {...}) calls:
// the literal is a coroutine body, and its yield parameter — plus every
// variable or field it is assigned to — is how that body parks. Inspect
// is pre-order, so a yield is known before the assignments inside its
// own body are visited.
func (p *program) indexCoroutines(pass *analysis.Pass, file *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(file, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			callee := analysis.Callee(info, x)
			if len(x.Args) != 1 || !(analysis.IsPkgFunc(callee, "iter", "Pull") || analysis.IsPkgFunc(callee, "iter", "Pull2")) {
				break
			}
			lit, ok := analysis.Unparen(x.Args[0]).(*ast.FuncLit)
			if !ok {
				break
			}
			p.pulled[lit] = fmt.Sprintf("%s(%s)", callee.Name(), shortPos(pass.Fset, x.Pos()))
			if params := lit.Type.Params.List; len(params) > 0 && len(params[0].Names) > 0 {
				p.yields[info.Defs[params[0].Names[0]]] = true
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				break
			}
			for i, rhs := range x.Rhs {
				if p.yields[valueObj(info, rhs)] {
					if dst := valueObj(info, x.Lhs[i]); dst != nil {
						p.yields[dst] = true
					}
				}
			}
		}
		return true
	})
}

// valueObj resolves the variable or field an expression reads or
// writes, through parentheses and indexing (s.yield[rank] -> field
// yield); nil for anything else.
func valueObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			return info.ObjectOf(x.Sel)
		default:
			return nil
		}
	}
}

// isYield reports whether call switches a coroutine back to its carrier.
func (p *program) isYield(info *types.Info, call *ast.CallExpr) bool {
	obj := valueObj(info, call.Fun)
	return obj != nil && p.yields[obj]
}

// addFact records a blocking primitive unless a directive covers the
// site: an allowed fact is struck before the may-park closure, so a
// justified "this send cannot block" does not demand echo directives up
// every caller chain.
func (n *funcNode) addFact(pos token.Pos, what string) {
	if !n.pass.Allowed(pos) {
		n.facts = append(n.facts, fact{pos, what})
	}
}

func (p *program) add(n *funcNode) {
	if _, dup := p.nodes[n.key]; dup {
		return
	}
	p.nodes[n.key] = n
	p.order = append(p.order, n.key)
}

func methodKey(name string, nparams int) string {
	return fmt.Sprintf("%s|%d", name, nparams)
}

func displayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = path.Base(fn.Pkg().Path()) + "."
	}
	if recv := analysis.RecvTypeName(fn); recv != "" {
		return pkg + "(*" + recv + ")." + fn.Name()
	}
	return pkg + fn.Name()
}

// scan collects edges, blocking facts, park calls, and Spawn roots from
// one function body. Function literals become child nodes: linked by an
// edge when they may run on the caller's fiber, rootless and edgeless
// when they are a `go` target, and fiber roots when passed to Spawn or
// pulled as a coroutine.
func (p *program) scan(n *funcNode) {
	info := n.pass.TypesInfo
	noEdge := map[*ast.FuncLit]bool{}    // go-statement targets: off-fiber
	rootLit := map[*ast.FuncLit]string{} // Spawn arguments: fiber roots
	n.goCalls = map[*ast.CallExpr]bool{}
	skipComm := map[ast.Node]bool{}

	ast.Inspect(n.body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			n.goCalls[x.Call] = true
			if lit, ok := analysis.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				noEdge[lit] = true
			}
		case *ast.CallExpr:
			if spawnSite, fnArg := p.spawnArg(info, x); fnArg != nil {
				site := fmt.Sprintf("%s(%s)", spawnSite, shortPos(n.pass.Fset, x.Pos()))
				if lit, ok := analysis.Unparen(fnArg).(*ast.FuncLit); ok {
					rootLit[lit] = site
				} else if callee := funcValue(info, fnArg); callee != nil {
					if t := p.nodes[analysis.FuncKey(callee)]; t != nil && t.root == "" {
						t.root = site
					}
				}
			}
		case *ast.SelectStmt:
			for _, cl := range x.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					skipComm[cc.Comm] = true
				}
			}
		}
		return true
	})

	addFact := n.addFact

	var walk func(x ast.Node) bool
	walk = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			child := &funcNode{
				key:     litKey(n.pass.Fset, x),
				display: "func literal (" + shortPos(n.pass.Fset, x.Pos()) + ")",
				pass:    n.pass,
				body:    x.Body,
				root:    rootLit[x],
			}
			if child.root == "" {
				child.root = p.pulled[x]
			}
			p.add(child)
			p.scan(child)
			if !noEdge[x] && child.root == "" {
				n.edges = append(n.edges, child.key)
			}
			return false
		case *ast.SendStmt:
			if !skipComm[ast.Node(x)] {
				addFact(x.Arrow, "channel send")
			}
			return !skipComm[ast.Node(x)]
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				addFact(x.OpPos, "channel receive")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					addFact(x.For, "range over a channel")
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range x.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				addFact(x.Select, "select without a default case")
			}
			// Comm statements are part of the select (already accounted
			// for); walk only the clause bodies.
			for _, cl := range x.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, walk)
					}
				}
			}
			return false
		case ast.Stmt:
			if skipComm[x] {
				return false
			}
		case *ast.CallExpr:
			p.scanCall(n, info, x)
		}
		return true
	}
	ast.Inspect(n.body, walk)
}

// spawnArg matches (*fabric.World).Spawn(rank, fn) and SpawnAll(fn), and
// their (*fabric.sched) counterparts, returning the fiber function arg.
func (p *program) spawnArg(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	callee := analysis.Callee(info, call)
	for _, m := range [...]struct {
		typ, name string
		nargs     int
	}{
		{"World", "Spawn", 2}, {"sched", "spawn", 2},
		{"World", "SpawnAll", 1}, {"sched", "spawnAll", 1},
	} {
		if len(call.Args) == m.nargs && analysis.IsMethod(callee, "internal/fabric", m.typ, m.name) {
			return m.name, call.Args[m.nargs-1]
		}
	}
	return "", nil
}

// funcValue resolves a function-valued expression (method value or
// function identifier) passed as an argument.
func funcValue(info *types.Info, e ast.Expr) *types.Func {
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

func (p *program) scanCall(n *funcNode, info *types.Info, call *ast.CallExpr) {
	if p.isYield(info, call) {
		n.parkCalls = append(n.parkCalls, call.Pos())
		return
	}
	callee := analysis.Callee(info, call)
	if callee == nil {
		return
	}
	switch {
	case analysis.IsPkgFunc(callee, "time", "Sleep"):
		n.addFact(call.Pos(), "time.Sleep")
		return
	case analysis.IsMethod(callee, "sync", "Cond", "Wait"):
		n.addFact(call.Pos(), "sync.Cond.Wait")
		return
	case analysis.IsMethod(callee, "sync", "WaitGroup", "Wait"):
		n.addFact(call.Pos(), "sync.WaitGroup.Wait")
		return
	case analysis.IsMethod(callee, "internal/fabric", "sched", "park"):
		// Callers see park as the primitive; the edge puts park's own
		// body on the fiber, so its yield is checked against its lock.
		n.parkCalls = append(n.parkCalls, call.Pos())
		n.edges = append(n.edges, analysis.FuncKey(callee))
		return
	}
	if n.goCalls[call] {
		return // `go f()`: f runs off-fiber
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
			// Interface dispatch: fan out to same-shaped module methods.
			n.edges = append(n.edges, p.methods[methodKey(callee.Name(), sig.Params().Len())]...)
			return
		}
	}
	n.edges = append(n.edges, analysis.FuncKey(callee))
}

func litKey(fset *token.FileSet, lit *ast.FuncLit) string {
	pos := fset.Position(lit.Pos())
	return fmt.Sprintf("lit|%s:%d:%d", pos.Filename, pos.Line, pos.Column)
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", path.Base(p.Filename), p.Line)
}

// fixMayPark computes the may-park closure: a function may park if it
// parks or blocks directly, or calls something that may.
func (p *program) fixMayPark() {
	for _, n := range p.nodes {
		n.mayPark = len(n.parkCalls) > 0 || len(n.facts) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, n := range p.nodes {
			if n.mayPark {
				continue
			}
			for _, e := range n.edges {
				if t := p.nodes[e]; t != nil && t.mayPark {
					n.mayPark = true
					changed = true
					break
				}
			}
		}
	}
}

// report walks fiber reachability from the Spawn roots and emits both
// finding kinds for every reachable function.
func (p *program) report() {
	parent := map[string]string{}
	var queue []string
	for _, key := range p.order {
		if p.nodes[key].root != "" {
			parent[key] = ""
			queue = append(queue, key)
		}
	}
	var reach []string
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		reach = append(reach, key)
		for _, e := range p.nodes[key].edges {
			t := p.nodes[e]
			if t == nil {
				continue // no body loaded (stdlib etc.)
			}
			if _, seen := parent[e]; seen {
				continue
			}
			parent[e] = key
			queue = append(queue, e)
		}
	}
	for _, key := range reach {
		n := p.nodes[key]
		via := p.path(parent, key)
		for _, f := range n.facts {
			n.pass.Reportf(f.pos, "%s blocks a fiber (%s): fibers share one scheduler token and must park via the scheduler, not the Go runtime", f.what, via)
		}
		p.checkLocks(n)
	}
}

func (p *program) path(parent map[string]string, key string) string {
	var segs []string
	for key != "" {
		n := p.nodes[key]
		segs = append(segs, n.display)
		if parent[key] == "" {
			segs = append(segs, "fiber root "+n.root)
			break
		}
		key = parent[key]
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return strings.Join(segs, " -> ")
}

// ---- mutex-held-across-park ----

// lockFlow tracks, branch-isolated, which mutexes are locked, and
// reports any site that may park while one is held. sync.Cond.Wait is
// exempt: its contract requires the lock (it releases internally), and
// the blocking itself is already reported above.
type lockFlow struct {
	p        *program
	n        *funcNode
	locked   map[string]string // mutex expr key -> display
	reported map[token.Pos]bool
}

func (p *program) checkLocks(n *funcNode) {
	f := &lockFlow{p: p, n: n, locked: map[string]string{}, reported: map[token.Pos]bool{}}
	analysis.WalkFlow(n.body.List, f)
}

func (f *lockFlow) Clone() analysis.Flow {
	l := make(map[string]string, len(f.locked))
	for k, v := range f.locked {
		l[k] = v
	}
	return &lockFlow{p: f.p, n: f.n, locked: l, reported: f.reported}
}

func (f *lockFlow) Merge(branches []analysis.Flow, terminated []bool) {
	var live []*lockFlow
	for i, b := range branches {
		if !terminated[i] {
			live = append(live, b.(*lockFlow))
		}
	}
	if len(live) == 0 {
		return
	}
	for k := range f.locked {
		for _, b := range live {
			if _, held := b.locked[k]; !held {
				delete(f.locked, k)
				break
			}
		}
	}
}

func (f *lockFlow) Cond(e ast.Expr) { f.scan(e) }

func (f *lockFlow) Leaf(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := analysis.Unparen(s.X).(*ast.CallExpr); ok {
			if f.lockOp(call) {
				return
			}
		}
		f.scan(s.X)
	case *ast.DeferStmt:
		// A deferred Unlock releases at return; it does not release for
		// the statements that follow, so tracking ignores it. A deferred
		// anything-else cannot park mid-body either.
	case *ast.SendStmt:
		f.parkish(s.Arrow, "channel send")
		f.scan(s.Chan)
		f.scan(s.Value)
	default:
		if s != nil {
			f.scan(s)
		}
	}
}

// lockOp applies m.Lock()/m.Unlock() statements to the lock set.
func (f *lockFlow) lockOp(call *ast.CallExpr) bool {
	callee := analysis.Callee(f.n.pass.TypesInfo, call)
	name, recv := mutexOp(callee)
	if name == "" {
		return false
	}
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	key := analysis.ExprKey(f.n.pass.TypesInfo, sel.X)
	if key == "" {
		key = "<mutex>@" + recv
	}
	switch name {
	case "Lock", "RLock":
		f.locked[key] = analysis.ExprString(sel.X)
	case "Unlock", "RUnlock":
		delete(f.locked, key)
	}
	return true
}

// mutexOp matches sync.Mutex/sync.RWMutex lock methods.
func mutexOp(callee *types.Func) (op, recv string) {
	for _, r := range []string{"Mutex", "RWMutex"} {
		for _, m := range []string{"Lock", "Unlock", "RLock", "RUnlock"} {
			if analysis.IsMethod(callee, "sync", r, m) {
				return m, r
			}
		}
	}
	return "", ""
}

// scan inspects a statement or expression for sites that may park.
func (f *lockFlow) scan(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				f.parkish(x.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			if f.n.goCalls[x] {
				return true // args still scanned; target runs off-fiber
			}
			info := f.n.pass.TypesInfo
			if f.p.isYield(info, x) {
				f.parkish(x.Pos(), "coroutine yield")
				return true
			}
			callee := analysis.Callee(info, x)
			if callee == nil {
				return true
			}
			switch {
			case analysis.IsMethod(callee, "sync", "Cond", "Wait"):
				return true // exempt: Wait's contract is lock-held
			case analysis.IsMethod(callee, "internal/fabric", "sched", "park"):
				f.parkish(x.Pos(), "sched.park")
			case analysis.IsPkgFunc(callee, "time", "Sleep"):
				f.parkish(x.Pos(), "time.Sleep")
			case analysis.IsMethod(callee, "sync", "WaitGroup", "Wait"):
				f.parkish(x.Pos(), "sync.WaitGroup.Wait")
			default:
				if op, _ := mutexOp(callee); op != "" {
					return true
				}
				if t := f.p.nodes[analysis.FuncKey(callee)]; t != nil && t.mayPark {
					f.parkish(x.Pos(), t.display+" (which may park)")
				}
			}
		}
		return true
	})
}

func (f *lockFlow) parkish(pos token.Pos, what string) {
	if len(f.locked) == 0 || f.reported[pos] {
		return
	}
	var held string
	for _, d := range f.locked {
		if held == "" || d < held {
			held = d
		}
	}
	f.reported[pos] = true
	f.n.pass.Reportf(pos, "%s while %s is held: a parked fiber keeps the lock and the next fiber needing it deadlocks the world; unlock before parking (unlock -> park -> relock)", what, held)
}
