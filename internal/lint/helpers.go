package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeOf resolves the statically known callee of a call expression:
// a package-level function, a method on a concrete receiver, or a
// qualified import (pkg.Fn). Returns nil for builtins, dynamic calls
// through function values, interface method calls, and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls have no body to follow and are
				// dynamic; report them as unresolved.
				if types.IsInterface(sel.Recv()) {
					return nil
				}
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgPathOf returns the import path of the package defining fn, or ""
// for builtins and universe-scope functions (error.Error).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// namedOf unwraps pointers and returns the named type beneath t, if any.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named
		}
	}
	return nil
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type name declared in a package whose path's last element is pkgElem.
// Matching by trailing path element keeps the analyzers working both on
// the real tree (bsub/internal/engine) and on fixture stubs that mirror
// the layout under a different module root.
func isNamedType(t types.Type, pkgElem, name string) bool {
	named := namedOf(t)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Name() != name {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == pkgElem || strings.HasSuffix(path, "/"+pkgElem)
}

// recvNamed returns the named type of fn's receiver, or nil for
// plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// funcBodies yields every function or method declaration with a body in
// the package, plus the declaration it came from.
func funcBodies(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// returnsError reports whether any result of the call's callee type is
// the builtin error interface.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	check := func(t types.Type) bool {
		return t != nil && t.String() == "error"
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if check(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return check(tv.Type)
}

// underAny reports whether rel is one of the listed package paths or
// lives underneath one of them ("internal/mesh/worker" is under
// "internal/mesh"; "internal/meshier" is not). The suffix form keeps
// fixture trees that mirror the layout under another root in scope.
func underAny(rel string, pkgs ...string) bool {
	for _, p := range pkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") ||
			strings.HasSuffix(rel, "/"+p) || strings.Contains(rel+"/", "/"+p+"/") {
			return true
		}
	}
	return false
}

// resolveObj resolves the object an identifier or field selector refers
// to: the local variable for `wg`, the field for `n.wg` or `w.m.wg`.
// Returns nil for anything else (calls, index expressions, ...).
func resolveObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

// syncCallee reports whether call is method `name` on the named sync
// type (Mutex, RWMutex, WaitGroup, ...), returning the receiver
// expression for identity resolution.
func syncCallee(info *types.Info, call *ast.CallExpr, typeName ...string) (recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn := calleeOf(info, call)
	if fn == nil || pkgPathOf(fn) != "sync" {
		return nil, "", false
	}
	named := recvNamed(fn)
	if named == nil {
		return nil, "", false
	}
	for _, tn := range typeName {
		if named.Obj().Name() == tn {
			return sel.X, fn.Name(), true
		}
	}
	return nil, "", false
}
