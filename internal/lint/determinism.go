package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism keeps the replayable core replayable: internal/engine,
// internal/msgstore, internal/tcbf, internal/core, internal/protocol,
// internal/trace* (the tracegen pair streams included),
// internal/workload, internal/sim, internal/metrics, and internal/xrand
// must not read wall clocks (time.Now
// and friends — time is threaded explicitly as a parameter everywhere),
// must not draw from the global math/rand state (seeded *rand.Rand
// generators are fine), and must not iterate a map where the body's
// effects are order-sensitive: appending to an outer slice that is not
// subsequently sorted, accumulating floating-point sums, or feeding keys
// into a filter/wire buffer whose state depends on insertion order. The
// sharded runner's byte-identical-at-any-worker-count guarantee (DESIGN.md
// §11) rests on exactly these properties: a map-ordered merge or an
// ambient RNG in a stream would shift results between runs, not just
// between worker counts.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "deterministic packages must not use wall clocks, global rand, or order-sensitive map iteration",
	Applies: func(rel string) bool {
		for _, scoped := range []string{
			"internal/engine", "internal/msgstore", "internal/tcbf", "internal/core",
			"internal/protocol", "internal/sim", "internal/workload", "internal/metrics",
			"internal/xrand",
		} {
			if rel == scoped || strings.HasPrefix(rel, scoped+"/") {
				return true
			}
		}
		return strings.HasPrefix(rel, "internal/trace")
	},
	Run: runDeterminism,
}

// wallClockFuncs are the time package's ambient-state readers.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			if fn == nil {
				return true
			}
			switch pkgPathOf(fn) {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(), "time.%s reads the wall clock; thread the simulation clock explicitly", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions draw from the shared global
				// source; constructors (New, NewSource) build seeded
				// generators and are fine, as are methods on *rand.Rand.
				if recvNamed(fn) == nil && !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(call.Pos(), "global math/rand.%s is seeded from runtime state; use a seeded *rand.Rand", fn.Name())
				}
			}
			return true
		})
	}
	funcBodies(pass.Pkg, func(fd *ast.FuncDecl) {
		checkMapRanges(pass, fd)
	})
}

// checkMapRanges flags range-over-map loops whose bodies have
// order-sensitive effects.
func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fd, rng)
		return true
	})
}

func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	// Loop-local means declared anywhere in the range statement,
	// including the key/value variables in the range clause itself.
	inBody := func(pos token.Pos) bool {
		return rng.Pos() <= pos && pos <= rng.Body.End()
	}
	outerObj := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil || obj.Pos() == token.NoPos || inBody(obj.Pos()) {
			return nil
		}
		return obj
	}
	// sinkObj resolves an assignment target that outlives the loop: a
	// plain identifier, or a field selector on an outer value (the shard
	// merge's total.delays shape). Fields resolve to the field object, so
	// a later sort of the same field counts as settling the order.
	sinkObj := func(expr ast.Expr) (types.Object, string) {
		switch lhs := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return outerObj(lhs), lhs.Name
		case *ast.SelectorExpr:
			base, ok := ast.Unparen(lhs.X).(*ast.Ident)
			if !ok || outerObj(base) == nil {
				return nil, ""
			}
			return info.Uses[lhs.Sel], base.Name + "." + lhs.Sel.Name
		}
		return nil, ""
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// v = append(v, ...) where v outlives the loop and is never
			// sorted afterwards: the slice order is the map order.
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					id, ok := ast.Unparen(call.Fun).(*ast.Ident)
					if !ok || id.Name != "append" {
						continue
					}
					if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
						continue
					}
					if i >= len(n.Lhs) {
						continue
					}
					obj, name := sinkObj(n.Lhs[i])
					if obj == nil {
						continue
					}
					if !sortedAfter(pass, fd, rng, obj) {
						pass.Reportf(n.Pos(), "append to %s inside a map range leaks iteration order; sort the result or iterate sorted keys", name)
					}
				}
			}
			// Floating-point accumulation: x += f is order-sensitive in
			// float arithmetic.
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN {
				for _, lhs := range n.Lhs {
					obj, name := sinkObj(lhs)
					if obj == nil {
						continue
					}
					if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
						pass.Reportf(n.Pos(), "floating-point accumulation into %s inside a map range is order-sensitive", name)
					}
				}
			}
		case *ast.CallExpr:
			// Feeding map-ordered keys into a counting filter: AMerge
			// saturates and Insert decays, so insertion order shows in
			// the counters.
			fn := calleeOf(info, n)
			if fn == nil {
				return true
			}
			if named := recvNamed(fn); named != nil && isNamedType(named, "tcbf", named.Obj().Name()) {
				switch fn.Name() {
				case "Insert", "InsertPre", "InsertAll", "InsertAllPre", "AMerge", "MMerge":
					pass.Reportf(n.Pos(), "%s.%s inside a map range makes filter state depend on iteration order", named.Obj().Name(), fn.Name())
				}
			}
		}
		return true
	})
}

// sortedAfter reports whether obj is passed to a sort call later in the
// same function (after the range loop ends) — the append-then-sort
// idiom is deterministic.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	info := pass.Pkg.Info
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted || call.Pos() < rng.End() {
			return !sorted
		}
		fn := calleeOf(info, call)
		if fn == nil {
			return true
		}
		path := pkgPathOf(fn)
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			switch a := ast.Unparen(arg).(type) {
			case *ast.Ident:
				if info.Uses[a] == obj {
					sorted = true
				}
			case *ast.SelectorExpr:
				if info.Uses[a.Sel] == obj {
					sorted = true
				}
			}
		}
		return !sorted
	})
	return sorted
}
