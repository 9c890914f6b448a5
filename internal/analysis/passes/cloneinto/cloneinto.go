// Package cloneinto checks that every service has one copy body. The model
// checker and the immediate safety check run each handler on a copy made by
// Service.CloneInto, so a type with a Clone() Service method must declare
// CloneInto itself, and its Clone must be exactly `return x.CloneInto(nil)`.
//
// The first rule catches a wrapper that embeds a service and overrides some
// of its handlers: without a CloneInto of its own it inherits the embedded
// type's, which returns the bare embedded service, so inside the checker the
// wrapper's handlers silently disappear — while its Clone, which the wrapper
// did override, still looks right. The second keeps a Clone and a CloneInto
// from drifting apart as a service gains fields.
//
// The analysis is name-driven so golden tests can model it: a Clone method
// with no parameters whose one result is a named interface called Service.
package cloneinto

import (
	"go/ast"
	"go/types"

	"crystalball/internal/analysis"
)

// Analyzer flags a service whose Clone is not CloneInto(nil) or whose
// CloneInto is not its own.
var Analyzer = &analysis.Analyzer{
	Name: "cloneinto",
	Doc:  "flag a service type without a CloneInto of its own, or whose Clone is not exactly `return x.CloneInto(nil)`",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Clone" {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok || !returnsService(fn.Type().(*types.Signature)) {
				continue
			}
			named := receiverType(fn)
			if named == nil {
				continue
			}
			if !declares(named, "CloneInto") {
				if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "CloneInto"); obj != nil {
					pass.Reportf(fd.Name.Pos(), "%s declares Clone but not CloneInto: it inherits the embedded service's, which returns the bare embedded service, so the checker runs none of %s's handlers", named.Obj().Name(), named.Obj().Name())
				} else {
					pass.Reportf(fd.Name.Pos(), "%s declares Clone but not CloneInto: a service's one copy body is CloneInto", named.Obj().Name())
				}
			}
			if !clonesIntoNil(info, fd) {
				pass.Reportf(fd.Name.Pos(), "the body of %s.Clone must be exactly `return <receiver>.CloneInto(nil)`: a second copy body drifts from CloneInto's", named.Obj().Name())
			}
		}
	}
	return nil
}

// returnsService reports whether sig takes nothing and returns one named
// interface called Service.
func returnsService(sig *types.Signature) bool {
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	if !ok || named.Obj().Name() != "Service" {
		return false
	}
	_, isIface := named.Underlying().(*types.Interface)
	return isIface
}

// receiverType returns the named type method fn is declared on.
func receiverType(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// declares reports whether named itself (not an embedded field) declares
// the method.
func declares(named *types.Named, method string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == method {
			return true
		}
	}
	return false
}

// clonesIntoNil reports whether fd's body is exactly
// `return <receiver>.CloneInto(nil)`.
func clonesIntoNil(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Body == nil || len(fd.Body.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "CloneInto" {
		return false
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok || info.Uses[recv] == nil || info.Uses[recv] != info.Defs[fd.Recv.List[0].Names[0]] {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[arg].(*types.Nil)
	return isNil
}
