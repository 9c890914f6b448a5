// Package hashmaint machine-checks the incremental-fingerprint invariant of
// the checker's global state: every write to a fingerprint-bearing GState
// component (nodes, msgs, stale, resets) must be paired — in the same
// function, or through a helper — with maintenance of the incremental hash
// sum (hsum) it contributes to. PR 2 introduced the O(delta) fingerprint and
// PR 6's partial-order reduction leans on hash-equal => successor-equal; a
// successor constructor that mutates a component but forgets the paired
// Hash/EncodedSize update only surfaces today when the runtime FullHash
// differential oracle happens to execute that path. This pass surfaces it at
// vet time.
//
// Components held by pointer (node states, in-flight items) are shared by
// every state that holds them and immutable once stored, so a write
// *through* an element — g.msgs[j].pos-- — is flagged wherever it stands,
// paired or not: the element must be copied and the copy stored.
//
// The analysis is name-driven so golden tests can model the invariant: it
// looks for a struct type named GState with a field hsum; packages without
// one are vacuously clean.
package hashmaint

import (
	"go/ast"
	"go/types"

	"crystalball/internal/analysis"
)

const (
	structName = "GState"
	guardField = "hsum"
)

// componentFields are the fingerprint-bearing GState components: each one's
// content contributes component hashes to the hsum fingerprint (and bytes to
// EncodedSize), so unpaired writes desynchronize Hash from FullHash.
var componentFields = map[string]bool{
	"nodes":  true,
	"msgs":   true,
	"stale":  true,
	"resets": true,
}

// Analyzer flags GState component writes with no paired fingerprint update.
var Analyzer = &analysis.Analyzer{
	Name:            "hashmaint",
	Doc:             "flag writes to fingerprint-bearing GState components without a paired incremental hsum update",
	PackagePrefixes: []string{"crystalball/internal/mc"},
	Run:             run,
}

// compWrite is one recorded component mutation.
type compWrite struct {
	pos   ast.Node
	field string
}

// funcFacts summarises one function's relationship to the invariant.
type funcFacts struct {
	writesGuard bool
	compWrites  []compWrite
	sharedWrite []compWrite // writes through a pointer-held element
	calls       map[*types.Func]bool
}

func run(pass *analysis.Pass) error {
	info := pass.Pkg.TypesInfo
	gstate := lookupGState(pass.Pkg.Types)
	if gstate == nil {
		return nil
	}

	// Pass 1: collect per-function facts — guard writes, component writes,
	// same-package calls.
	facts := make(map[*types.Func]*funcFacts)
	var order []*types.Func
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			facts[fn] = collect(pass, gstate, fd)
			order = append(order, fn)
		}
	}

	// Pass 2: propagate "maintains the fingerprint" through the
	// same-package call graph to a fixpoint, so helper-mediated
	// maintenance (g.addMsg(...) inside a constructor) counts.
	maintains := make(map[*types.Func]bool)
	for fn, ff := range facts {
		maintains[fn] = ff.writesGuard
	}
	for changed := true; changed; {
		changed = false
		for fn, ff := range facts {
			if maintains[fn] {
				continue
			}
			for callee := range ff.calls {
				if maintains[callee] {
					maintains[fn] = true
					changed = true
					break
				}
			}
		}
	}

	// Pass 3: report component writes in functions that neither maintain
	// the fingerprint themselves nor call anything that does.
	for _, fn := range order {
		ff := facts[fn]
		for _, w := range ff.sharedWrite {
			pass.Reportf(w.pos.Pos(),
				"%s writes through an element of %s.%s, which every state holding that element shares; copy the element and store the copy",
				fn.Name(), structName, w.field)
		}
		if maintains[fn] {
			continue
		}
		for _, w := range ff.compWrites {
			pass.Reportf(w.pos.Pos(),
				"%s writes %s.%s without a paired incremental %s update; use a mutation helper (addMsg/removeMsgAt/setStale/bumpResets/setNode) or maintain %s/encSize in this function",
				fn.Name(), structName, w.field, guardField, guardField)
		}
	}
	return nil
}

// lookupGState finds the package's GState named type, requiring the guard
// field so unrelated same-named types don't trip the pass.
func lookupGState(pkg *types.Package) *types.Named {
	obj := pkg.Scope().Lookup(structName)
	if obj == nil {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == guardField {
			return named
		}
	}
	return nil
}

// collect walks one function body recording guard writes, component writes
// and same-package callees.
func collect(pass *analysis.Pass, gstate *types.Named, fd *ast.FuncDecl) *funcFacts {
	info := pass.Pkg.TypesInfo
	ff := &funcFacts{calls: make(map[*types.Func]bool)}

	onGState := func(e ast.Expr) (string, bool) {
		// Matches g.<field> (possibly through pointers/parens) for g of
		// type GState or *GState.
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		t := info.TypeOf(sel.X)
		if t == nil {
			return "", false
		}
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed || named.Obj() != gstate.Obj() {
			return "", false
		}
		return sel.Sel.Name, true
	}

	// recordTarget classifies one written lvalue.
	recordTarget := func(lhs ast.Expr, at ast.Node) {
		// A write through a pointer-held element, g.msgs[j].pos--, reaches
		// an item other states share.
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if ix, ok := ast.Unparen(sel.X).(*ast.IndexExpr); ok {
				_, shared := info.TypeOf(ix).(*types.Pointer)
				if field, onG := onGState(ix.X); onG && componentFields[field] && shared {
					ff.sharedWrite = append(ff.sharedWrite, compWrite{pos: at, field: field})
					return
				}
			}
		}
		// Unwrap element writes: g.nodes[i] = ..., g.msgs[j] = ...
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			lhs = ix.X
		}
		field, ok := onGState(lhs)
		if !ok {
			return
		}
		if field == guardField || field == "encSize" {
			ff.writesGuard = true
			return
		}
		if componentFields[field] {
			ff.compWrites = append(ff.compWrites, compWrite{pos: at, field: field})
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				recordTarget(lhs, s)
			}
		case *ast.IncDecStmt:
			recordTarget(s.X, s)
		case *ast.CallExpr:
			if fn := calleeFunc(info, s); fn != nil && fn.Pkg() == pass.Pkg.Types {
				ff.calls[fn] = true
			}
		case *ast.CompositeLit:
			t := info.TypeOf(s)
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			named, isNamed := t.(*types.Named)
			if !isNamed || named.Obj() != gstate.Obj() {
				break
			}
			var comps []string
			guard := false
			for _, elt := range s.Elts {
				kv, isKV := elt.(*ast.KeyValueExpr)
				if !isKV {
					continue
				}
				key, isIdent := kv.Key.(*ast.Ident)
				if !isIdent {
					continue
				}
				if key.Name == guardField {
					guard = true
				} else if componentFields[key.Name] {
					comps = append(comps, key.Name)
				}
			}
			if guard {
				ff.writesGuard = true
			} else {
				for _, c := range comps {
					ff.compWrites = append(ff.compWrites, compWrite{pos: s, field: c})
				}
			}
		}
		return true
	})
	return ff
}

// calleeFunc resolves the called function or method object, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
