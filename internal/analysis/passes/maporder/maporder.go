// Package maporder flags `range` over a map in the deterministic packages —
// the PR 2 bug class, where Go's randomized map iteration order leaked into
// timer enumeration and RST fan-out and broke same-seed replay. A loop is
// exempt when its effect is provably order-independent: a commutative fold
// (each iteration only accumulates with commutative operators, inserts
// keyed by the iterated key, mutates loop-local state, or runs a nested
// loop whose body is itself such a fold), or the collect-then-sort idiom
// (the body only appends into a slice that is passed to a sort.* /
// slices.* call later in the same function).
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"crystalball/internal/analysis"
)

// Analyzer flags non-deterministic map iteration in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name:            "maporder",
	Doc:             "flag range-over-map whose iteration order can leak into deterministic exploration",
	PackagePrefixes: analysis.DeterministicPackages,
	Run:             run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		c := &checker{info: info, body: analysis.PosRange{Pos: rs.Body.Pos(), End: rs.Body.End()}}
		c.loopVars(rs)
		if c.commutativeBody(rs.Body) {
			return true
		}
		if collectThenSorted(pass, fd, rs) {
			return true
		}
		pass.Reportf(rs.For,
			"iteration over map %s has non-deterministic order; iterate sorted keys or make the body a commutative fold",
			types.TypeString(t, types.RelativeTo(pass.Pkg.Types)))
		return true
	})
}

// checker decides whether a loop body is a commutative fold: no iteration's
// effect on state outside the loop depends on which iterations ran before
// it.
type checker struct {
	info *types.Info
	body analysis.PosRange
	// rangeVars are the key/value objects bound by the range clause, and
	// rangeKey the key's (nil when there is none): writes indexed by the key
	// itself (out[k] = v) hit distinct elements and commute, while an index
	// that merely mentions a range variable (out[v] = k) can name one
	// element from two iterations.
	rangeVars map[types.Object]bool
	rangeKey  types.Object
	// nested is set inside a nested loop, where a write keyed by a range
	// variable hits the same element once per inner iteration.
	nested bool
}

func (c *checker) loopVars(rs *ast.RangeStmt) {
	c.rangeVars = make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if obj := c.object(e); obj != nil && obj.Name() != "_" {
			c.rangeVars[obj] = true
			if e == rs.Key {
				c.rangeKey = obj
			}
		}
	}
}

// object returns the variable expr names when it is an identifier, or nil.
func (c *checker) object(expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := c.info.Defs[id]; obj != nil {
		return obj
	}
	return c.info.Uses[id]
}

// loopLocal reports whether expr is rooted at a variable declared inside the
// loop body (or a range variable): mutating it is invisible outside one
// iteration.
func (c *checker) loopLocal(expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			obj := c.info.Uses[e]
			if obj == nil {
				obj = c.info.Defs[e]
			}
			if obj == nil {
				return false
			}
			return c.rangeVars[obj] || c.body.Contains(obj.Pos())
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// keyedByRangeKey reports whether expr is an index expression whose index
// is the range key itself: the keys are distinct, so such writes commute.
func (c *checker) keyedByRangeKey(expr ast.Expr) bool {
	ix, ok := expr.(*ast.IndexExpr)
	return ok && !c.nested && c.rangeKey != nil && c.object(ix.Index) == c.rangeKey
}

func (c *checker) commutativeBody(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if !c.commutativeStmt(s) {
			return false
		}
	}
	return true
}

// commutative assignment operators: accumulate with order-independent
// arithmetic (+= and -= form a commutative group; |=, &=, ^=, *= are
// commutative and associative).
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.AND_ASSIGN: true,
	token.XOR_ASSIGN: true,
}

func (c *checker) commutativeStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		if commutativeOps[st.Tok] {
			return true
		}
		// Plain assignment or declaration: every target must be
		// loop-local, the blank identifier, or an element write keyed by
		// the range key (distinct keys -> commutes).
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			if st.Tok == token.DEFINE {
				continue // new loop-local binding
			}
			if c.loopLocal(lhs) || c.keyedByRangeKey(lhs) {
				continue
			}
			return false
		}
		return true
	case *ast.IncDecStmt:
		return true
	case *ast.DeclStmt:
		return true // declares loop-locals
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if analysis.IsBuiltinCall(c.info, call, "delete") {
			return len(call.Args) == 2 && c.keyedDelete(call)
		}
		// A bare method call mutates only its receiver as far as this
		// heuristic can see; accept it when the receiver is loop-local.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && c.loopLocal(sel.X) {
			return true
		}
		// A free function call whose every argument is loop-local can
		// only mutate per-iteration state (as far as the heuristic sees).
		if _, ok := call.Fun.(*ast.Ident); ok {
			for _, arg := range call.Args {
				if !c.loopLocal(arg) {
					return false
				}
			}
			return len(call.Args) > 0
		}
		return false
	case *ast.IfStmt:
		if st.Init != nil && !c.commutativeStmt(st.Init) {
			return false
		}
		if hasCalls(c.info, st.Cond) {
			return false
		}
		if !c.commutativeBody(st.Body) {
			return false
		}
		if st.Else != nil {
			if eb, ok := st.Else.(*ast.BlockStmt); ok {
				return c.commutativeBody(eb)
			}
			return c.commutativeStmt(st.Else)
		}
		return true
	case *ast.BlockStmt:
		return c.commutativeBody(st)
	case *ast.RangeStmt:
		// A nested loop commutes when each of its iterations does. Its
		// range variables must be new bindings and its operand call-free.
		if st.Tok == token.ASSIGN || hasCalls(c.info, st.X) {
			return false
		}
		inner := *c
		inner.nested = true
		return inner.commutativeBody(st.Body)
	case *ast.BranchStmt:
		// continue skips an element (order-independent); break/goto make
		// the set of processed elements depend on iteration order.
		return st.Tok == token.CONTINUE
	case *ast.EmptyStmt:
		return true
	default:
		// return, send, go, defer, for loops, ... — assume
		// order-dependent.
		return false
	}
}

// keyedDelete reports whether delete(m, k)'s key mentions a range variable
// (delete of distinct keys commutes) or m is loop-local.
func (c *checker) keyedDelete(call *ast.CallExpr) bool {
	if c.loopLocal(call.Args[0]) {
		return true
	}
	for obj := range c.rangeVars {
		if analysis.MentionsObject(c.info, call.Args[1], obj) {
			return true
		}
	}
	return false
}

// hasCalls reports whether expr contains any call other than len/cap —
// calls in a loop condition may observe order-dependent state or have side
// effects.
func hasCalls(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if analysis.IsBuiltinCall(info, call, "len") || analysis.IsBuiltinCall(info, call, "cap") {
			return true
		}
		found = true
		return false
	})
	return found
}

// collectThenSorted recognizes the collect-then-sort idiom: the loop body
// only appends into outer slices, and every such slice is handed to a
// sort.* or slices.* call later in the same function.
func collectThenSorted(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	info := pass.Pkg.TypesInfo
	var targets []types.Object
	// Unwrap conditional collects (`if ok { keys = append(keys, k) }`): the
	// guard must be call-free so it cannot observe order-dependent state.
	stmts := rs.Body.List
	for len(stmts) == 1 {
		ifs, ok := stmts[0].(*ast.IfStmt)
		if !ok || ifs.Init != nil || ifs.Else != nil || hasCalls(info, ifs.Cond) {
			break
		}
		stmts = ifs.Body.List
	}
	for _, s := range stmts {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !analysis.IsBuiltinCall(info, call, "append") {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	if len(targets) == 0 {
		return false
	}
	for _, obj := range targets {
		if !sortedAfter(info, fd, rs, obj) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether a sort.* or slices.* call mentioning obj
// appears after the loop in the function body.
func sortedAfter(info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < rs.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkgPath, _, ok := analysis.PkgFuncCall(info, call)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if analysis.MentionsObject(info, arg, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}
