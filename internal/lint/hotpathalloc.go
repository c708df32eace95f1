package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotpathAlloc guards the zero-allocation contact path established in
// PR 4. Functions carrying a //bsub:hotpath directive must not contain
// allocating constructs — fmt calls, string concatenation or
// string<->[]byte conversions, closures that capture variables, map or
// slice literals, bare make, boxing into interfaces — and may only call
// other hotpath-marked functions, //bsub:coldpath-marked escape hatches,
// or allowlisted stdlib functions: whole packages of non-allocating value
// computations, and the non-allocating functions of slices.
//
// Two idioms are deliberately exempt, mirroring how the real hot path is
// written: allocations inside a return statement whose error result is
// non-nil (error returns are cold: the contact is already failing), and
// make inside an append argument list (amortized arena growth).
// slices.Insert and slices.Delete count as append: they grow or shift a
// slice in place.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//bsub:hotpath functions must not allocate and may only call hotpath or allowlisted functions",
	Run:  runHotpathAlloc,
}

// hotpathAllowedPkgs are stdlib packages whose functions are
// non-allocating value computations, safe from a hot function.
var hotpathAllowedPkgs = map[string]bool{
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true,
	"sort":            true,
	"time":            true, // Duration arithmetic; time.Now is determinism's job
	"errors":          true, // errors.Is on sentinel errors
}

// hotpathAllowedSlices are the functions of the slices package a hot
// function may call: non-allocating searches and sorts, and Insert and
// Delete, append-like in-place edits. Clone, Concat, Grow and every
// function not listed allocate or may; list a function only once it is
// known not to.
var hotpathAllowedSlices = map[string]bool{
	"BinarySearch":     true,
	"BinarySearchFunc": true,
	"Contains":         true,
	"Delete":           true,
	"IndexFunc":        true,
	"Insert":           true,
	"SortFunc":         true,
}

func runHotpathAlloc(pass *Pass) {
	info := pass.Pkg.Info
	funcBodies(pass.Pkg, func(fd *ast.FuncDecl) {
		obj := info.Defs[fd.Name]
		if obj == nil || !pass.Prog.Hotpath[obj] {
			return
		}
		checkHotBody(pass, fd)
	})
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	body := fd.Body
	// Returns with a non-nil error result are cold exits (error paths);
	// collect their spans so allocations inside them are exempt.
	var returns []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its returns belong to the literal
		case *ast.ReturnStmt:
			if errorExit(info, fd, n) {
				returns = append(returns, n)
			}
		}
		return true
	})
	inReturn := func(pos token.Pos) bool {
		for _, r := range returns {
			if r.Pos() <= pos && pos <= r.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n, inReturn)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !inReturn(n.Pos()) {
				if tv, ok := info.Types[n]; ok && isStringType(tv.Type) {
					pass.Reportf(n.Pos(), "string concatenation allocates in a hotpath function")
				}
			}
		case *ast.FuncLit:
			if !inReturn(n.Pos()) && capturesVariables(info, n) {
				pass.Reportf(n.Pos(), "closure captures variables and allocates in a hotpath function")
			}
			return false // the literal body runs elsewhere; don't double-report
		case *ast.CompositeLit:
			if inReturn(n.Pos()) {
				return true
			}
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates in a hotpath function")
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates in a hotpath function")
				}
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr, inReturn func(token.Pos) bool) {
	info := pass.Pkg.Info
	cold := inReturn(call.Pos())

	// Conversions: string([]byte) and []byte(string) copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 && !cold {
		to := tv.Type
		if from, ok := info.Types[call.Args[0]]; ok {
			if isStringType(to) && isByteSlice(from.Type) {
				pass.Reportf(call.Pos(), "[]byte-to-string conversion allocates in a hotpath function")
			}
			if isByteSlice(to) && isStringType(from.Type) {
				pass.Reportf(call.Pos(), "string-to-[]byte conversion allocates in a hotpath function")
			}
		}
		return
	}

	// Builtins: make outside an append argument is an allocation; append
	// itself and len/cap/copy/delete are the hot path's bread and butter.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if !cold && !makeInsideAppend(pass, call) {
					pass.Reportf(call.Pos(), "make allocates in a hotpath function; preallocate in the arena or mark the grow path //bsub:coldpath")
				}
			case "new":
				if !cold {
					pass.Reportf(call.Pos(), "new allocates in a hotpath function")
				}
			}
			return
		}
	}

	fn := calleeOf(info, call)
	if fn == nil {
		// Dynamic, interface, or builtin call: budget hooks and
		// io.Writer-style indirection are part of the engine's design;
		// their implementations are checked where they are defined.
		return
	}
	path := pkgPathOf(fn)
	if path == "fmt" && !cold {
		pass.Reportf(call.Pos(), "hotpath function calls fmt.%s, which allocates", fn.Name())
		return
	}
	if path == pass.Prog.ModulePath || strings.HasPrefix(path, pass.Prog.ModulePath+"/") {
		// Module-internal callee: must itself be hotpath or an explicit
		// coldpath escape hatch.
		if pass.Prog.Hotpath[fn] || pass.Prog.Coldpath[fn] {
			return
		}
		pass.Reportf(call.Pos(), "hotpath function calls %s, which is not marked //bsub:hotpath or //bsub:coldpath", fn.Name())
		return
	}
	if hotpathAllowedPkgs[path] || path == "" || path == "fmt" ||
		path == "slices" && hotpathAllowedSlices[fn.Name()] {
		return
	}
	if !cold {
		pass.Reportf(call.Pos(), "hotpath function calls %s.%s, which is not on the allowlist", path, fn.Name())
	}
}

// errorExit reports whether ret, a return statement of fd, returns a
// non-nil error: fd's last result is an error and ret's last result
// expression is not nil.
func errorExit(info *types.Info, fd *ast.FuncDecl, ret *ast.ReturnStmt) bool {
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	results := obj.Type().(*types.Signature).Results()
	n := results.Len()
	if n == 0 || len(ret.Results) != n || results.At(n-1).Type().String() != "error" {
		return false
	}
	tv, ok := info.Types[ret.Results[n-1]]
	return ok && !tv.IsNil()
}

// makeInsideAppend reports whether call (a make) appears in the argument
// list of an append call — the amortized arena-growth idiom
// `append(chunks, make([]T, n))`.
func makeInsideAppend(pass *Pass, call *ast.CallExpr) bool {
	found := false
	for _, file := range pass.Pkg.Files {
		if file.Pos() <= call.Pos() && call.Pos() <= file.End() {
			ast.Inspect(file, func(n ast.Node) bool {
				outer, ok := n.(*ast.CallExpr)
				if !ok || found {
					return !found
				}
				if id, ok := ast.Unparen(outer.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						for _, a := range outer.Args {
							if a.Pos() <= call.Pos() && call.Pos() <= a.End() {
								found = true
							}
						}
					}
				}
				return !found
			})
			break
		}
	}
	return found
}

// capturesVariables reports whether the closure references any object
// declared outside itself (forcing a heap-allocated closure context).
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if obj.Pos() != token.NoPos && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			// Package-level vars are static, not captured.
			if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
				return true
			}
			captured = true
		}
		return true
	})
	return captured
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}
