// Package hotpathalloc flags allocation-prone constructs inside functions
// annotated //crystal:hotpath — the PR 4 surface (successor constructors,
// FillView, the engine worker loop, Plan/Observe), whose allocation budget
// is pinned by AllocsPerRun regression tests. The pass catches the regression
// at vet time instead of at benchmark time:
//
//   - fmt.Sprintf / Sprint / Sprintln / Errorf / Appendf
//   - append in a loop to a local slice with no preallocated or reused
//     backing (no make-with-capacity, no reslice of an existing buffer)
//   - closures inside loops that capture outer variables (one allocation
//     per iteration)
//   - hash.Hash construction (fnv.New64a etc.; use sm's streamed FNV
//     helpers)
//   - interface boxing of non-pointer values into ...any variadics or
//     explicit any(x) conversions
//   - map construction, make(map...) or a map literal: a header and its
//     buckets per call (NodeState.clone rebuilt the pending-timer map for
//     every handler run for sixteen PRs; a sorted slice shared with the
//     parent took its place)
//   - a heap object per child: &entry{...}, &proposal{...} or new of either
//     (name-driven, so the golden tests can model it). The search tree's
//     entries live in slabs and a worker's proposals in its reused buffer,
//     both stored by value — the pointerful Node per proposed child this
//     replaced was 106 B of every claimed state and the collector's largest
//     scan
//   - append, in a loop, of a struct value to a slice of interfaces: one box
//     per element (event enumeration boxed an sm.Event per enabled
//     transition, slept or not, until it listed keys instead)
//   - sort.Slice / sort.SliceStable / sort.Sort: a reflect swapper and a
//     closure, or a boxed sort.Interface, per call (Bullet′'s state encoder
//     sorted what its maps forgot, 29 MB of a 100,000-state run, until its
//     sets were kept in order). slices.Sort on a slice of an ordered type
//     allocates nothing; state that is kept sorted needs neither
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"crystalball/internal/analysis"
)

// Analyzer flags allocation-prone constructs in //crystal:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocation-prone constructs in functions annotated //crystal:hotpath",
	Run:  run,
}

var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true,
}

var sortAllocFuncs = map[string]bool{"Slice": true, "SliceStable": true, "Sort": true}

// slabTypes are the per-child values that are stored by value, never as a
// heap object each.
var slabTypes = map[string]bool{"entry": true, "proposal": true}

// slabType returns the name of t if it is one of slabTypes.
func slabType(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok || !slabTypes[named.Obj().Name()] {
		return "", false
	}
	return named.Obj().Name(), true
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.IsHotpathDoc(fd.Doc) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.TypesInfo
	loops := analysis.LoopBodies(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, fd, e, loops)
		case *ast.CompositeLit:
			if _, isMap := info.TypeOf(e).Underlying().(*types.Map); isMap {
				pass.Reportf(e.Pos(), "map literal builds a map on a hot path; keep a sorted slice, or reuse a map the caller owns")
			}
		case *ast.UnaryExpr:
			if lit, ok := e.X.(*ast.CompositeLit); ok && e.Op == token.AND {
				if name, ok := slabType(info.TypeOf(lit)); ok {
					pass.Reportf(e.Pos(), "&%s{} heap-allocates one %s per child on a hot path; store it by value in its slab or buffer", name, name)
				}
			}
		case *ast.FuncLit:
			if analysis.InAny(loops, e.Pos()) && capturesOuter(info, fd, e) {
				pass.Reportf(e.Pos(),
					"closure in a loop captures outer variables and allocates per iteration on a hot path")
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, loops []analysis.PosRange) {
	info := pass.Pkg.TypesInfo
	if pkgPath, name, ok := analysis.PkgFuncCall(info, call); ok {
		switch {
		case pkgPath == "fmt" && fmtAllocFuncs[name]:
			pass.Reportf(call.Pos(), "fmt.%s allocates on a hot path; use streamed helpers or preformatted values", name)
			return
		case pkgPath == "sort" && sortAllocFuncs[name]:
			pass.Reportf(call.Pos(), "sort.%s allocates per call on a hot path; keep the data in order, or use slices.Sort on an ordered element type", name)
			return
		case hashPackage(pkgPath) && strings.HasPrefix(name, "New"):
			pass.Reportf(call.Pos(),
				"%s.%s constructs a hash.Hash on a hot path; use the streamed sm.FNV64a helpers or a pooled instance",
				pkgPath[strings.LastIndexByte(pkgPath, '/')+1:], name)
			return
		}
	}
	if analysis.IsBuiltinCall(info, call, "make") && len(call.Args) > 0 {
		if _, isMap := info.TypeOf(call.Args[0]).Underlying().(*types.Map); isMap {
			pass.Reportf(call.Pos(), "make builds a map on a hot path; keep a sorted slice, or reuse a map the caller owns")
			return
		}
	}
	if analysis.IsBuiltinCall(info, call, "new") && len(call.Args) == 1 {
		if name, ok := slabType(info.TypeOf(call.Args[0])); ok {
			pass.Reportf(call.Pos(), "new(%s) heap-allocates one %s per child on a hot path; store it by value in its slab or buffer", name, name)
			return
		}
	}
	if analysis.IsBuiltinCall(info, call, "append") && analysis.InAny(loops, call.Pos()) {
		checkAppend(pass, fd, call)
		checkAppendBoxing(pass, call)
		return
	}
	checkBoxing(pass, call)
}

func hashPackage(path string) bool {
	return path == "hash" || strings.HasPrefix(path, "hash/") || strings.HasPrefix(path, "crypto/")
}

// checkAppend flags append-in-loop when the destination is a function-local
// slice with no evidence of preallocated or reused backing.
func checkAppend(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Pkg.TypesInfo
	if len(call.Args) == 0 {
		return
	}
	dest, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // field / indexed / pointed-to destination: assume reused storage
	}
	obj := info.Uses[dest]
	if obj == nil {
		obj = info.Defs[dest]
	}
	v, isVar := obj.(*types.Var)
	if !isVar || v.Pos() < fd.Pos() || v.Pos() > fd.End() {
		return // parameter from caller or package-level: caller's business
	}
	if preallocated(info, fd, obj) {
		return
	}
	pass.Reportf(call.Pos(),
		"append to un-preallocated slice %s in a loop on a hot path; make(..., 0, n) it or reuse a buffer (buf[:0])", dest.Name)
}

// checkAppendBoxing flags append(dst, v...) in a loop where dst is a slice of
// a (non-empty) interface type and some v is a struct value: every element
// is boxed into a one-value heap object.
func checkAppendBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.Pkg.TypesInfo
	if len(call.Args) < 2 || call.Ellipsis != token.NoPos {
		return
	}
	slice, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Slice)
	if !ok {
		return
	}
	if _, isIface := slice.Elem().Underlying().(*types.Interface); !isIface {
		return
	}
	for _, arg := range call.Args[1:] {
		if _, isStruct := info.TypeOf(arg).Underlying().(*types.Struct); isStruct {
			pass.Reportf(arg.Pos(), "append boxes a struct into a slice of interfaces once per iteration on a hot path; list plain values and box the ones that are used")
		}
	}
}

// preallocated reports whether any assignment to obj in the function gives
// it sized or reused backing: make with a capacity (or non-zero length),
// a reslice of existing storage, a call result, or a non-empty literal.
func preallocated(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	ok := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || ok {
			return !ok
		}
		for i, lhs := range as.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent {
				continue
			}
			lobj := info.Defs[id]
			if lobj == nil {
				lobj = info.Uses[id]
			}
			if lobj != obj || i >= len(as.Rhs) {
				continue
			}
			if sizedExpr(info, as.Rhs[i]) {
				ok = true
				return false
			}
		}
		return true
	})
	return ok
}

func sizedExpr(info *types.Info, e ast.Expr) bool {
	switch r := e.(type) {
	case *ast.SliceExpr:
		return true // reslice of existing storage (buf[:0] reuse idiom)
	case *ast.CompositeLit:
		return len(r.Elts) > 0
	case *ast.CallExpr:
		if analysis.IsBuiltinCall(info, r, "append") {
			// The growth being checked; appends are not sizing evidence.
			return false
		}
		if !analysis.IsBuiltinCall(info, r, "make") {
			// Some other callee produced the slice; assume it sized it.
			return true
		}
		if len(r.Args) >= 3 {
			return true // make(T, len, cap)
		}
		if len(r.Args) == 2 {
			// make(T, n): sized unless n is literally 0.
			if lit, isLit := r.Args[1].(*ast.BasicLit); isLit && lit.Value == "0" {
				return false
			}
			return true
		}
		return false
	default:
		return false
	}
}

// capturesOuter reports whether the closure references a variable declared
// in the enclosing function outside the closure itself.
func capturesOuter(info *types.Info, fd *ast.FuncDecl, fl *ast.FuncLit) bool {
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !captured
		}
		v, isVar := info.Uses[id].(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() <= fd.End() && (v.Pos() < fl.Pos() || v.Pos() > fl.End()) {
			captured = true
		}
		return !captured
	})
	return captured
}

// checkBoxing flags non-pointer values boxed into empty-interface variadics
// and explicit any(x) conversions: each boxing escapes the value to the
// heap.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.Pkg.TypesInfo
	// Explicit conversion to an empty interface: any(x) / interface{}(x).
	if tv, isConv := info.Types[call.Fun]; isConv && tv.IsType() && len(call.Args) == 1 {
		if iface, isIface := tv.Type.Underlying().(*types.Interface); isIface && iface.NumMethods() == 0 {
			if boxes(info.TypeOf(call.Args[0])) {
				pass.Reportf(call.Pos(), "conversion boxes a non-pointer value into an interface on a hot path")
			}
		}
		return
	}
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, isSig := sigT.(*types.Signature)
	if !isSig || !sig.Variadic() || call.Ellipsis != token.NoPos {
		return
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, isSlice := last.Type().(*types.Slice)
	if !isSlice {
		return
	}
	iface, isIface := slice.Elem().Underlying().(*types.Interface)
	if !isIface || iface.NumMethods() != 0 {
		return
	}
	for i := sig.Params().Len() - 1; i < len(call.Args); i++ {
		if boxes(info.TypeOf(call.Args[i])) {
			pass.Reportf(call.Args[i].Pos(), "argument boxes a non-pointer value into ...any on a hot path")
		}
	}
}

// boxes reports whether storing a value of type t in an interface
// allocates: non-pointer-shaped kinds escape to the heap.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	case *types.Struct, *types.Array, *types.Slice:
		return true
	default:
		// Pointers, maps, chans, funcs and interfaces fit the interface
		// data word (or are already boxed).
		return false
	}
}
