package lint

import (
	"go/ast"
	"go/types"
)

// WireErr forbids silently dropped errors in the wire-facing packages:
// in internal/livenode, internal/tcbf, and internal/mesh, any call
// whose result set includes an error must
// have that error checked or explicitly discarded with `_ =`. A frame
// write that fails and goes unnoticed is how a severed contact turns
// into a lost copy; the explicit-discard form documents that the drop
// is intentional (e.g. the best-effort BUSY frame, the advisory flood
// contact).
var WireErr = &Analyzer{
	Name: "wireerr",
	Doc:  "errors from frame/codec writes must be checked or explicitly discarded",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/livenode", "internal/tcbf", "internal/mesh")
	},
	Run: runWireErr,
}

func runWireErr(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if returnsError(info, call) {
				pass.Reportf(call.Pos(), "unchecked error from %s; handle it or discard it with _ =", callName(info, call))
			}
			return true
		})
	}
}

// callName renders a short, stable name for the called function.
func callName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeOf(info, call); fn != nil {
		return fn.Name()
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return "call"
}
