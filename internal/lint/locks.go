package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Locks walks every function in internal/livenode and internal/mesh in
// source order with the set of held mutexes, and asks two questions at
// each call and acquire site.
//
// Does this block? No blocking operation — net/io calls, channel sends
// and receives, select without default, time.Sleep, sync.WaitGroup.Wait,
// or a call through a function value (user hooks) — may happen while a
// sync.Mutex or RWMutex is held. This makes the lock-held-dial bug
// structurally impossible, and it holds in the mesh daemon because its
// event loop holds the membership lock while scheduling: a dial or
// enqueue that blocked there would stall every peer at once.
//
// Does this acquire out of rank? Mutex fields annotated
// //bsub:lockrank N declare the acquisition order: while a ranked lock
// is held, only strictly higher-ranked locks may be acquired. Two
// goroutines taking `mu` and `statsMu` in opposite orders hang only
// under the right interleaving; the rank check catches the pair on any
// path. Reacquiring a held mutex is a self-deadlock and always flagged.
// Nesting that involves a ranked lock on either side requires both
// sides to be ranked, so the annotation set stays closed over
// everything that actually nests; two unranked mutexes may nest freely.
//
// Both answers propagate through the package-local call graph: a helper
// that writes a frame is as forbidden under a lock as conn.Write
// itself, and a call to a helper that takes a lower-ranked mutex is an
// inversion at the call site. Deferred calls are exempt (they run at
// function exit, after the deferred unlocks pair off), and goroutine
// bodies start with a clean slate: a goroutine spawned under a lock
// does not hold it.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "no blocking operation while a mutex is held, and mutexes acquired in //bsub:lockrank order, in internal/livenode and internal/mesh",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/livenode", "internal/mesh")
	},
	Run: runLocks,
}

// nonBlockingConnMethods are net.Conn methods that only mutate local
// state and never touch the wire.
var nonBlockingConnMethods = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
	"LocalAddr":        true,
	"RemoteAddr":       true,
}

// heldLock is one currently held mutex during the source-order walk.
type heldLock struct {
	expr  string // rendered lock expression, e.g. "m.mu"
	obj   types.Object
	write bool // Lock as opposed to RLock
}

type held map[string]heldLock

func (h held) clone() held {
	out := make(held, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// sorted returns the held set in deterministic order.
func (h held) sorted() []heldLock {
	out := make([]heldLock, 0, len(h))
	for _, l := range h {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].expr < out[j].expr })
	return out
}

// lockSummary is what a package-local function may do to its caller:
// block, or acquire these mutexes, directly or transitively.
type lockSummary struct {
	blocks   bool
	acquires map[types.Object]bool
}

type lockChecker struct {
	pass    *Pass
	info    *types.Info
	summary map[*types.Func]*lockSummary
}

func runLocks(pass *Pass) {
	c := &lockChecker{pass: pass, info: pass.Pkg.Info, summary: map[*types.Func]*lockSummary{}}

	// Malformed or misplaced annotations found during collection are
	// reported in the package that owns them.
	inPkg := map[string]bool{}
	for _, f := range pass.Pkg.Filenames {
		inPkg[f] = true
	}
	for _, bad := range pass.Prog.BadLockRanks {
		if inPkg[pass.Prog.Fset.Position(bad.pos).Filename] {
			pass.Reportf(bad.pos, "%s", bad.msg)
		}
	}

	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var decls []fnDecl
	funcBodies(pass.Pkg, func(fd *ast.FuncDecl) {
		if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
			decls = append(decls, fnDecl{obj, fd})
		}
	})

	// Summarize each function's own body, then propagate through
	// same-package calls to a fixpoint. Closure bodies are excluded: a
	// goroutine blocks and acquires on its own stack.
	for _, d := range decls {
		s := &lockSummary{acquires: map[types.Object]bool{}}
		inspectSkippingFuncLits(d.decl.Body, func(n ast.Node) {
			if sel, ok := n.(*ast.SelectStmt); ok && !selectHasDefault(sel) {
				s.blocks = true
			}
			if c.blockReason(n) != "" {
				s.blocks = true
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if recv, method, isMutex := syncCallee(c.info, call, "Mutex", "RWMutex"); isMutex && (method == "Lock" || method == "RLock") {
					if obj := resolveObj(c.info, recv); obj != nil {
						s.acquires[obj] = true
					}
				}
			}
		})
		c.summary[d.obj] = s
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			s := c.summary[d.obj]
			inspectSkippingFuncLits(d.decl.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				callee := c.localSummary(call)
				if callee == nil {
					return
				}
				if callee.blocks && !s.blocks {
					s.blocks = true
					changed = true
				}
				for obj := range callee.acquires {
					if !s.acquires[obj] {
						s.acquires[obj] = true
						changed = true
					}
				}
			})
		}
	}

	// Walk each function and closure tracking held locks.
	for _, d := range decls {
		c.walkStmts(d.decl.Body.List, held{})
	}
	for _, d := range decls {
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.walkStmts(lit.Body.List, held{})
				return false
			}
			return true
		})
	}
}

// localSummary returns the summary of call's callee when it is a
// function declared in the package under analysis.
func (c *lockChecker) localSummary(call *ast.CallExpr) *lockSummary {
	fn := calleeOf(c.info, call)
	if fn == nil || fn.Pkg() != c.pass.Pkg.Types {
		return nil
	}
	return c.summary[fn]
}

// blockReason classifies a single node as a blocking operation.
func (c *lockChecker) blockReason(n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.CallExpr:
		if _, _, isSync := syncCallee(c.info, n, "Mutex", "RWMutex"); isSync {
			return ""
		}
		fn := calleeOf(c.info, n)
		if fn != nil {
			switch path := pkgPathOf(fn); {
			case path == "net":
				return "net." + fn.Name()
			case path == "io":
				return "io." + fn.Name()
			case path == "time" && fn.Name() == "Sleep":
				return "time.Sleep"
			case path == "sync" && fn.Name() == "Wait":
				return "sync wait"
			}
			if s := c.localSummary(n); s != nil && s.blocks {
				return "call to " + fn.Name() + ", which blocks"
			}
			return ""
		}
		// Unresolved calls: conversions and builtins are fine; interface
		// methods on net/io types are wire I/O; calls through function
		// values (config hooks) may do anything and count as blocking.
		fun := ast.Unparen(n.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s, found := c.info.Selections[sel]; found {
				if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
					switch named.Obj().Pkg().Path() {
					case "net", "io":
						if nonBlockingConnMethods[sel.Sel.Name] {
							return ""
						}
						return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
					}
				}
				if types.IsInterface(s.Recv()) {
					return ""
				}
			}
		}
		if tv, ok := c.info.Types[n.Fun]; ok {
			if tv.IsType() {
				return "" // conversion
			}
			if id, ok := fun.(*ast.Ident); ok {
				if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
					return ""
				}
			}
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return "call through a function value"
			}
		}
	}
	return ""
}

func inspectSkippingFuncLits(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// walkStmts walks a statement list in source order maintaining the set
// of held locks. Branch bodies get a copy: a branch that unlocks and
// returns must not clear the lock for the fall-through path.
func (c *lockChecker) walkStmts(list []ast.Stmt, h held) {
	for _, s := range list {
		c.walkStmt(s, h)
	}
}

func (c *lockChecker) walkStmt(s ast.Stmt, h held) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if recv, method, isMutex := syncCallee(c.info, call, "Mutex", "RWMutex"); isMutex {
				expr := types.ExprString(recv)
				switch method {
				case "Lock", "RLock":
					c.checkAcquire(call.Pos(), resolveObj(c.info, recv), expr, method == "Lock", h)
				case "Unlock", "RUnlock":
					delete(h, expr)
				}
				return
			}
		}
		c.scan(s.X, h)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held for the rest of the
		// body; other deferred calls run after the locks pair off and
		// are exempt. Arguments are evaluated now, though.
		for _, a := range s.Call.Args {
			c.scan(a, h)
		}
	case *ast.GoStmt:
		// The goroutine body runs without the spawner's locks; its
		// FuncLit is walked separately with a clean slate.
		for _, a := range s.Call.Args {
			c.scan(a, h)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.scan(e, h)
		}
		for _, e := range s.Lhs {
			c.scan(e, h)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scan(e, h)
		}
	case *ast.IncDecStmt:
		c.scan(s.X, h)
	case *ast.SendStmt:
		c.reportBlocking(s.Pos(), "channel send", h)
		c.scan(s.Chan, h)
		c.scan(s.Value, h)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, h)
		}
		c.scan(s.Cond, h)
		c.walkStmts(s.Body.List, h.clone())
		if s.Else != nil {
			c.walkStmt(s.Else, h.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, h)
		}
		c.scan(s.Cond, h)
		inner := h.clone()
		c.walkStmts(s.Body.List, inner)
		if s.Post != nil {
			c.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		c.scan(s.X, h)
		c.walkStmts(s.Body.List, h.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, h)
		}
		c.scan(s.Tag, h)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, h.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, h.clone())
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			c.reportBlocking(s.Pos(), "select without default", h)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				inner := h.clone()
				if cc.Comm != nil {
					c.walkStmt(cc.Comm, inner)
				}
				c.walkStmts(cc.Body, inner)
			}
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, h)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scan(v, h)
					}
				}
			}
		}
	}
}

// scan checks every node of the expression (excluding closure bodies)
// against the held set: blocking operations, and package-local calls
// that may acquire a mutex out of rank.
func (c *lockChecker) scan(e ast.Expr, h held) {
	if e == nil || len(h) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		if reason := c.blockReason(n); reason != "" {
			c.reportBlocking(n.Pos(), reason, h)
		}
		if call, ok := n.(*ast.CallExpr); ok {
			c.checkCallSite(call, h)
		}
		return true
	})
}

func (c *lockChecker) reportBlocking(pos token.Pos, what string, h held) {
	if len(h) == 0 {
		return
	}
	names := make([]string, 0, len(h))
	for _, l := range h.sorted() {
		names = append(names, l.expr)
	}
	c.pass.Reportf(pos, "%s while %s is held", what, strings.Join(names, ", "))
}

// lockName renders a lock for messages: the declared Type.field name
// when ranked, the walk's expression otherwise.
func (c *lockChecker) lockName(obj types.Object, expr string) string {
	if r, ok := c.pass.Prog.LockRanks[obj]; ok {
		return r.Name
	}
	return expr
}

// checkAcquire reports order violations for acquiring (obj, expr)
// while held locks are outstanding, then records the new lock.
func (c *lockChecker) checkAcquire(pos token.Pos, obj types.Object, expr string, write bool, h held) {
	for _, l := range h.sorted() {
		if l.expr == expr && (write || l.write) {
			c.pass.Reportf(pos, "%s is reacquired while already held: self-deadlock", expr)
			continue
		}
		c.checkPair(pos, "", obj, l)
	}
	h[expr] = heldLock{expr: expr, obj: obj, write: write}
}

// checkCallSite applies the rank rules to every mutex a package-local
// callee may acquire while the caller holds locks.
func (c *lockChecker) checkCallSite(call *ast.CallExpr, h held) {
	s := c.localSummary(call)
	if s == nil || len(s.acquires) == 0 {
		return
	}
	// Deterministic order over the callee's acquisition set.
	objs := make([]types.Object, 0, len(s.acquires))
	for obj := range s.acquires {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool {
		return c.lockName(objs[i], objs[i].Name()) < c.lockName(objs[j], objs[j].Name())
	})
	via := calleeOf(c.info, call).Name()
	for _, obj := range objs {
		for _, l := range h.sorted() {
			c.checkPair(call.Pos(), via, obj, l)
		}
	}
}

// checkPair applies the rank rules to one (acquired, held) pair. via
// names the callee when the acquisition happens inside a called
// function.
func (c *lockChecker) checkPair(pos token.Pos, via string, acq types.Object, l heldLock) {
	ra, aRanked := c.pass.Prog.LockRanks[acq]
	rh, hRanked := c.pass.Prog.LockRanks[l.obj]
	prefix := "acquiring "
	if via != "" {
		prefix = "call to " + via + " acquires "
	}
	switch {
	case aRanked && hRanked:
		if rh.Rank >= ra.Rank {
			c.pass.Reportf(pos, "%s%s (lockrank %d) while %s (lockrank %d) is held inverts the declared lock order",
				prefix, ra.Name, ra.Rank, rh.Name, rh.Rank)
		}
	case aRanked && !hRanked:
		c.pass.Reportf(pos, "%s%s (lockrank %d) while unranked mutex %s is held; annotate %s with //bsub:lockrank",
			prefix, ra.Name, ra.Rank, l.expr, l.expr)
	case !aRanked && hRanked:
		name := ""
		if acq != nil {
			name = " (" + acq.Name() + ")"
		}
		c.pass.Reportf(pos, "%san unranked mutex%s while %s (lockrank %d) is held; annotate it with //bsub:lockrank",
			prefix, name, rh.Name, rh.Rank)
	}
}
