package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WireTaint tracks wire-derived integers from extraction to use: a
// value produced by a multi-byte binary.BigEndian/LittleEndian read is
// tainted, taint propagates through conversions, arithmetic, and
// assignment, and using a tainted value as a make size or capacity, a
// slice/array index, a slice-expression bound, or a loop bound is a
// finding — unless the value first passes through recognized
// validation: an explicit comparison against a bound (if-condition or
// switch), a min/max clamp, or a Validate call. This is the exact bug
// class the repo has shipped three times (zero counter bytes and NaN
// uniform decode in PR 6, silent m>2^32 truncation in PR 9): a decoder
// trusting a length field before checking it.
//
// The analysis is function-local and source-ordered, with branch-copied
// taint state, matching where the historical bugs lived: inside the
// decoder that performed the extraction. Single-byte reads (b[i],
// int(b[0])) are bounded by 255 and never tainted, which keeps count
// bytes and version switches quiet.
var WireTaint = &Analyzer{
	Name: "wiretaint",
	Doc:  "wire-derived lengths must be validated before sizing allocations, indexing, or bounding loops",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/livenode", "internal/mesh", "internal/tcbf")
	},
	Run: runWireTaint,
}

// wireReadFuncs are the encoding/binary extractors whose results carry
// taint. PutUintNN and single-byte loads do not produce attacker-sized
// integers.
var wireReadFuncs = map[string]bool{
	"Uint16": true,
	"Uint32": true,
	"Uint64": true,
}

// smallConversions bounds a conversion result tightly enough to clear
// taint.
var smallConversions = map[string]bool{
	"byte": true, "uint8": true, "int8": true, "bool": true,
}

type wtChecker struct {
	pass *Pass
	info *types.Info
}

func runWireTaint(pass *Pass) {
	c := &wtChecker{pass: pass, info: pass.Pkg.Info}
	funcBodies(pass.Pkg, func(fd *ast.FuncDecl) {
		c.walkStmts(fd.Body.List, map[string]token.Pos{})
		// Closures get their own clean slate: they execute later, and
		// the historical bugs were all in straight-line decoders.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.walkStmts(lit.Body.List, map[string]token.Pos{})
				return false
			}
			return true
		})
	})
}

// taintKey canonicalizes a taintable expression — an identifier or a
// field selector chain — to its rendered form. Returns "" for
// everything else.
func taintKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := taintKey(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// isWireRead reports whether call extracts a multi-byte integer from
// the wire.
func (c *wtChecker) isWireRead(call *ast.CallExpr) bool {
	fn := calleeOf(c.info, call)
	return fn != nil && pkgPathOf(fn) == "encoding/binary" && wireReadFuncs[fn.Name()]
}

// isConversion reports whether call is a type conversion, and to what
// type name.
func (c *wtChecker) isConversion(call *ast.CallExpr) (string, bool) {
	tv, ok := c.info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	return tv.Type.String(), true
}

// tainted reports whether evaluating e yields a wire-derived integer
// under the current taint set.
func (c *wtChecker) tainted(e ast.Expr, taint map[string]token.Pos) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if key := taintKey(e); key != "" {
			_, ok := taint[key]
			return ok
		}
	case *ast.CallExpr:
		if c.isWireRead(e) {
			return true
		}
		if name, ok := c.isConversion(e); ok && len(e.Args) == 1 {
			if smallConversions[name] {
				return false
			}
			return c.tainted(e.Args[0], taint)
		}
		// min/max clamps against a constant bound sanitize; all other
		// call results are trusted (function-local analysis).
		return false
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
			return c.tainted(e.X, taint) || c.tainted(e.Y, taint)
		}
		return false
	case *ast.UnaryExpr:
		return c.tainted(e.X, taint)
	}
	return false
}

// render names an expression for a finding message.
func render(e ast.Expr) string {
	return types.ExprString(ast.Unparen(e))
}

// checkSinks scans an expression tree for tainted values reaching a
// sink: make sizes, indexes, and slice bounds. Closure bodies are
// walked separately.
func (c *wtChecker) checkSinks(e ast.Expr, taint map[string]token.Pos) {
	if e == nil || len(taint) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range n.Args[1:] {
						if c.tainted(arg, taint) {
							c.pass.Reportf(arg.Pos(), "wire-derived length %s used as make size without validation", render(arg))
						}
					}
				}
			}
		case *ast.IndexExpr:
			if c.tainted(n.Index, taint) && c.indexable(n.X) {
				c.pass.Reportf(n.Index.Pos(), "wire-derived index %s used without bounds validation", render(n.Index))
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil && c.tainted(bound, taint) {
					c.pass.Reportf(bound.Pos(), "wire-derived slice bound %s used without validation", render(bound))
				}
			}
		}
		return true
	})
}

// indexable reports whether e is a slice, array, or string — the types
// where an oversized index panics.
func (c *wtChecker) indexable(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Basic:
		if b, ok := t.(*types.Basic); ok && b.Info()&types.IsString == 0 {
			return false
		}
		return true
	case *types.Pointer:
		_, isArray := t.Elem().Underlying().(*types.Array)
		return isArray
	}
	return false
}

// sanitizeComparisons removes taint from every key that appears as an
// operand of a comparison in e — the recognized "explicit comparison
// against a bound" validation.
func (c *wtChecker) sanitizeComparisons(e ast.Expr, taint map[string]token.Pos) {
	if e == nil || len(taint) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			for _, operand := range []ast.Expr{be.X, be.Y} {
				c.sanitizeExpr(operand, taint)
			}
		}
		return true
	})
}

// sanitizeExpr clears the taint keys mentioned in a compared or
// validated expression (the comparison may wrap the key in a
// conversion or arithmetic: `if uint64(n)*8 > limit`).
func (c *wtChecker) sanitizeExpr(e ast.Expr, taint map[string]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		if ne, ok := n.(ast.Expr); ok {
			if key := taintKey(ne); key != "" {
				delete(taint, key)
				return false
			}
		}
		return true
	})
}

// sanitizeValidateCalls clears arguments passed to Validate-style
// functions anywhere in e.
func (c *wtChecker) sanitizeValidateCalls(e ast.Expr, taint map[string]token.Pos) {
	if e == nil || len(taint) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := callName(c.info, call)
		if len(name) >= 5 && (name[:5] == "Valid" || name[:5] == "valid") {
			for _, arg := range call.Args {
				c.sanitizeExpr(arg, taint)
			}
		}
		return true
	})
}

func copyTaint(taint map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(taint))
	for k, v := range taint {
		out[k] = v
	}
	return out
}

func (c *wtChecker) walkStmts(list []ast.Stmt, taint map[string]token.Pos) {
	for _, s := range list {
		c.walkStmt(s, taint)
	}
}

// checkAndSanitize is the per-statement expression pass: sinks are
// checked against the pre-statement taint, then Validate calls clear
// their arguments.
func (c *wtChecker) checkAndSanitize(e ast.Expr, taint map[string]token.Pos) {
	c.checkSinks(e, taint)
	c.sanitizeValidateCalls(e, taint)
}

func (c *wtChecker) walkStmt(s ast.Stmt, taint map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkAndSanitize(e, taint)
		}
		for _, e := range s.Lhs {
			c.checkAndSanitize(e, taint)
		}
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					key := taintKey(lhs)
					if key == "" {
						continue
					}
					if c.tainted(s.Rhs[i], taint) {
						taint[key] = s.Rhs[i].Pos()
					} else {
						delete(taint, key)
					}
				}
			} else {
				// Multi-value assignment from a call: results are
				// trusted (function-local analysis).
				for _, lhs := range s.Lhs {
					if key := taintKey(lhs); key != "" {
						delete(taint, key)
					}
				}
			}
		} else {
			// Compound assignment (+=, <<=, ...): taint accumulates.
			for i, lhs := range s.Lhs {
				key := taintKey(lhs)
				if key == "" {
					continue
				}
				if c.tainted(s.Rhs[i], taint) {
					taint[key] = s.Rhs[i].Pos()
				}
			}
		}
	case *ast.ExprStmt:
		c.checkAndSanitize(s.X, taint)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					c.checkAndSanitize(v, taint)
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && c.tainted(vs.Values[i], taint) {
						taint[name.Name] = name.Pos()
					} else {
						delete(taint, name.Name)
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, taint)
		}
		// Sinks inside the condition (a tainted index in `if b[i] == 0`)
		// fire first; then the comparison itself counts as the bound
		// check, for the branch and the continuation alike.
		c.checkAndSanitize(s.Cond, taint)
		c.sanitizeComparisons(s.Cond, taint)
		c.walkStmts(s.Body.List, copyTaint(taint))
		if s.Else != nil {
			c.walkStmt(s.Else, copyTaint(taint))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, taint)
		}
		if s.Cond != nil {
			// A tainted operand in the loop condition is the bound
			// itself — a sink, not a guard.
			c.checkSinks(s.Cond, taint)
			c.reportLoopBound(s.Cond, taint)
		}
		inner := copyTaint(taint)
		c.walkStmts(s.Body.List, inner)
		if s.Post != nil {
			c.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		c.checkAndSanitize(s.X, taint)
		// go1.22 range-over-int: `for range n` with a wire-derived n is
		// a tainted loop bound.
		if tv, ok := c.info.Types[s.X]; ok && tv.Type != nil {
			if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsInteger != 0 {
				if c.tainted(s.X, taint) {
					c.pass.Reportf(s.X.Pos(), "wire-derived value %s used as loop bound without validation", render(s.X))
				}
			}
		}
		c.walkStmts(s.Body.List, copyTaint(taint))
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, taint)
		}
		if s.Tag != nil {
			c.checkAndSanitize(s.Tag, taint)
			// Switching on the value enumerates it: validation.
			c.sanitizeExpr(s.Tag, taint)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					c.checkAndSanitize(e, taint)
				}
				c.walkStmts(cc.Body, copyTaint(taint))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, copyTaint(taint))
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				inner := copyTaint(taint)
				if cc.Comm != nil {
					c.walkStmt(cc.Comm, inner)
				}
				c.walkStmts(cc.Body, inner)
			}
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, taint)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, taint)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkAndSanitize(e, taint)
		}
	case *ast.SendStmt:
		c.checkAndSanitize(s.Chan, taint)
		c.checkAndSanitize(s.Value, taint)
	case *ast.IncDecStmt:
		c.checkAndSanitize(s.X, taint)
	case *ast.DeferStmt, *ast.GoStmt:
		var call *ast.CallExpr
		if d, ok := s.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = s.(*ast.GoStmt).Call
		}
		for _, a := range call.Args {
			c.checkAndSanitize(a, taint)
		}
	}
}

// reportLoopBound flags tainted operands of the loop condition.
func (c *wtChecker) reportLoopBound(cond ast.Expr, taint map[string]token.Pos) {
	if len(taint) == 0 {
		return
	}
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch be.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
		for _, operand := range []ast.Expr{be.X, be.Y} {
			if c.tainted(operand, taint) {
				c.pass.Reportf(operand.Pos(), "wire-derived value %s used as loop bound without validation", render(operand))
				// One report per loop; the bound then counts as seen.
				c.sanitizeExpr(operand, taint)
			}
		}
	}
}
