package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lifecycle ties every goroutine in the concurrent packages to a
// shutdown path. The mesh daemon, the livenode session engine, and the
// sharded simulator all spawn workers; the dynamic twin of this check —
// the internal/testutil goroutine-leak assertion — only sees the
// interleavings a test happens to execute, while this analyzer proves
// the structural half over all paths:
//
//   - every `go` statement's body must, transitively through
//     package-local calls, either signal a sync.WaitGroup (Done) or
//     receive from a shutdown channel (a field or variable whose name
//     says closed/done/quit/stop/shutdown) — otherwise the goroutine is
//     fire-and-forget and outlives Close (rule R1);
//   - a body that signals wg.Done must have a wg.Add earlier in the
//     spawning function, or the counter goes negative (rule R2);
//   - the Add and the `go` must not be split across a conditional: an
//     unconditional Add paired with a branch-guarded spawn leaks the
//     counter on the skipped branch and deadlocks Wait (rule R3).
//
// The Add/spawn pairing is matched in source order, not dominance, so
// the worker-pool idiom — Add under the queue lock inside an "arm the
// drainer" branch, spawn after unlock behind the matching flag — stays
// legal: both sites sit in sibling branches and neither strictly
// encloses the other.
var Lifecycle = &Analyzer{
	Name: "lifecycle",
	Doc:  "every goroutine in livenode/mesh/sim must be tied to a shutdown path (WaitGroup pairing or shutdown-channel receive)",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/livenode", "internal/mesh", "internal/sim")
	},
	Run: runLifecycle,
}

// lcFacts is what a function body can prove about shutdown wiring.
type lcFacts struct {
	// done holds the WaitGroup objects (fields or captured locals) the
	// body signals Done on, transitively through package-local calls.
	done map[types.Object]bool
	// unknownDone is set when a Done receiver cannot be resolved to an
	// object; it satisfies R1 but exempts the body from Add matching.
	unknownDone bool
	// shutdown is set when the body receives from a shutdown-named
	// channel (directly or via select/range).
	shutdown bool
}

func newLCFacts() *lcFacts { return &lcFacts{done: map[types.Object]bool{}} }

func (f *lcFacts) tied() bool { return f.shutdown || f.unknownDone || len(f.done) > 0 }

// merge unions other into f, reporting whether anything changed.
func (f *lcFacts) merge(other *lcFacts) bool {
	changed := false
	for obj := range other.done {
		if !f.done[obj] {
			f.done[obj] = true
			changed = true
		}
	}
	if other.unknownDone && !f.unknownDone {
		f.unknownDone = true
		changed = true
	}
	if other.shutdown && !f.shutdown {
		f.shutdown = true
		changed = true
	}
	return changed
}

type lcChecker struct {
	pass  *Pass
	info  *types.Info
	facts map[*types.Func]*lcFacts
}

func runLifecycle(pass *Pass) {
	c := &lcChecker{pass: pass, info: pass.Pkg.Info, facts: map[*types.Func]*lcFacts{}}

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

	// Phase 1: direct facts per function, then propagate through the
	// package-local call graph to a fixpoint, as the locks analyzer
	// propagates its summaries.
	for _, d := range decls {
		c.facts[d.obj] = c.directFacts(d.decl.Body)
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			f := c.facts[d.obj]
			ast.Inspect(d.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(c.info, call)
				if fn == nil || fn.Pkg() != c.pass.Pkg.Types {
					return true
				}
				if callee, ok := c.facts[fn]; ok && f.merge(callee) {
					changed = true
				}
				return true
			})
		}
	}

	// Phase 2: walk each declaration, pairing every `go` statement with
	// the WaitGroup Adds that precede it in source order.
	for _, d := range decls {
		c.checkDecl(d.decl)
	}
}

// directFacts scans a body — including nested closures, which run
// within the function's dynamic extent (deferred cleanups, spawned
// drains) and count as shutdown evidence — for Done calls and
// shutdown-channel receives.
func (c *lcChecker) directFacts(body *ast.BlockStmt) *lcFacts {
	f := newLCFacts()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, method, ok := syncCallee(c.info, n, "WaitGroup"); ok && method == "Done" {
				if obj := resolveObj(c.info, recv); obj != nil {
					f.done[obj] = true
				} else {
					f.unknownDone = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && c.isShutdownChan(n.X) {
				f.shutdown = true
			}
		case *ast.RangeStmt:
			if c.isShutdownChan(n.X) {
				f.shutdown = true
			}
		}
		return true
	})
	return f
}

// isShutdownChan reports whether e is a channel-typed field or variable
// whose name marks it as the shutdown signal.
func (c *lcChecker) isShutdownChan(e ast.Expr) bool {
	e = ast.Unparen(e)
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	tv, ok := c.info.Types[e]
	if !ok {
		return false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	lower := strings.ToLower(name)
	for _, marker := range []string{"close", "done", "quit", "stop", "shut"} {
		if strings.Contains(lower, marker) {
			return true
		}
	}
	return false
}

// lcEvent is one wg.Add or `go` site with its enclosing block path,
// used for the cross-branch pairing check (R3).
type lcEvent struct {
	pos  int // byte offset, for source ordering
	obj  types.Object
	name string
	path []ast.Node
	call *ast.CallExpr // go target, nil for Add events
}

// lcPathNode reports whether n contributes to the block path, and
// whether entering it means execution is conditional.
func lcPathNode(n ast.Node) (onPath, conditional bool) {
	switch n.(type) {
	case *ast.BlockStmt:
		return true, false
	case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
		*ast.CaseClause, *ast.CommClause, *ast.FuncLit:
		return true, true
	}
	return false, false
}

func (c *lcChecker) checkDecl(fd *ast.FuncDecl) {
	var adds, gos []lcEvent
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, method, ok := syncCallee(c.info, n, "WaitGroup"); ok && method == "Add" {
				if obj := resolveObj(c.info, recv); obj != nil {
					adds = append(adds, lcEvent{
						pos:  int(n.Pos()),
						obj:  obj,
						name: obj.Name(),
						path: pathSnapshot(stack),
					})
				}
			}
		case *ast.GoStmt:
			gos = append(gos, lcEvent{
				pos:  int(n.Pos()),
				path: pathSnapshot(stack),
				call: n.Call,
			})
		}
		return true
	})

	for _, g := range gos {
		c.checkGo(g, adds)
	}
}

// pathSnapshot projects the traversal stack onto the path-relevant
// nodes.
func pathSnapshot(stack []ast.Node) []ast.Node {
	var out []ast.Node
	for _, n := range stack {
		if on, _ := lcPathNode(n); on {
			out = append(out, n)
		}
	}
	return out
}

// goFacts evaluates the shutdown evidence of a `go` statement's target:
// the fixpoint facts for a named package function, or the literal's own
// facts plus those of every package function it calls.
func (c *lcChecker) goFacts(call *ast.CallExpr) *lcFacts {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		f := c.directFacts(lit.Body)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(c.info, inner)
			if fn == nil || fn.Pkg() != c.pass.Pkg.Types {
				return true
			}
			if callee, ok := c.facts[fn]; ok {
				f.merge(callee)
			}
			return true
		})
		return f
	}
	if fn := calleeOf(c.info, call); fn != nil && fn.Pkg() == c.pass.Pkg.Types {
		if f, ok := c.facts[fn]; ok {
			return f
		}
	}
	return newLCFacts()
}

func (c *lcChecker) checkGo(g lcEvent, adds []lcEvent) {
	f := c.goFacts(g.call)
	if !f.tied() {
		c.pass.Reportf(g.call.Pos(), "goroutine is fire-and-forget: its body neither signals a WaitGroup Done nor receives from a shutdown channel; tie it to the shutdown path")
		return
	}
	if f.unknownDone || len(f.done) == 0 {
		return
	}
	for obj := range f.done {
		// Latest Add on the same WaitGroup preceding the spawn in
		// source order.
		var add *lcEvent
		for i := range adds {
			if adds[i].obj == obj && adds[i].pos < g.pos {
				add = &adds[i]
			}
		}
		if add == nil {
			if !f.shutdown {
				c.pass.Reportf(g.call.Pos(), "goroutine signals %s.Done but no %s.Add precedes the go statement in the spawning function", obj.Name(), obj.Name())
			}
			continue
		}
		// R3: the Add's block strictly encloses the spawn and the path
		// between them crosses a conditional — a skipped branch leaks
		// the Add and deadlocks Wait.
		if len(add.path) < len(g.path) && samePathPrefix(add.path, g.path) {
			for _, n := range g.path[len(add.path):] {
				if _, cond := lcPathNode(n); cond {
					c.pass.Reportf(g.call.Pos(), "%s.Add and the goroutine signaling its Done are split across a conditional: a branch that skips the spawn leaks the Add and deadlocks Wait", obj.Name())
					break
				}
			}
		}
	}
}

func samePathPrefix(prefix, path []ast.Node) bool {
	for i, n := range prefix {
		if path[i] != n {
			return false
		}
	}
	return true
}
