package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// callerlessAllowed are the declarations the guard lets stand without a
// non-test caller, each with its reason. A row names a whole package (its
// import path) or one declaration (as the guard prints it). There is no
// in-source marker: a declaration that must stay callerless is a row here.
var callerlessAllowed = []struct{ name, why string }{
	{"crystalball/internal/testsvc", "test-support package: the toy services the checker's, controller's and runtime's tests drive"},
	{"crystalball/internal/analysis/analysistest", "test-support package: the golden-file harness every crystalvet pass test runs"},
	{"crystalball/internal/runtime.Node.Filters", "the controller's conservative-mode test counts the filters a node still holds; the runtime itself only consults them"},
	{"crystalball/internal/services/crdt.TieStart", "the staged lwwmap start state from which consequence prediction reaches the timestamp tie, shared by the scenario and checker tests"},
}

// TestEveryDeclarationHasACaller loads the whole module and fails on every
// top-level func, method, type, var and const in cmd/, internal/ and
// examples/ that no non-test code of the module references. bench/ counts as
// a user, not as a subject. To mend a finding, delete the declaration, move
// it into its package's export_test.go when only that package's tests use
// it, or rewrite the other package's test to use a non-test path; a row of
// callerlessAllowed, with its reason, is the last resort.
func TestEveryDeclarationHasACaller(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	subject := func(path string) bool {
		for _, dir := range []string{"cmd", "internal", "examples"} {
			if strings.HasPrefix(path, "crystalball/"+dir+"/") {
				return true
			}
		}
		return false
	}
	covers := func(row, name string) bool { return name == row || strings.HasPrefix(name, row+".") }
	matched := map[string]bool{}
	for _, name := range callerless(pkgs, subject) {
		allowed := false
		for _, r := range callerlessAllowed {
			if covers(r.name, name) {
				matched[r.name], allowed = true, true
			}
		}
		if !allowed {
			t.Errorf("%s: no non-test code references it", name)
		}
	}
	for _, r := range callerlessAllowed {
		if !matched[r.name] {
			t.Errorf("callerlessAllowed row %s matches no callerless declaration: drop it", r.name)
		}
	}
}

// TestCallerResolver runs the guard's resolver over a fixture whose every
// declaration is a case: a callerless func, one that only calls itself and a
// test-only one are reported; a generic method used through an
// instantiation, methods that satisfy heap.Interface, and a func used only
// from another package are not.
func TestCallerResolver(t *testing.T) {
	const fixture = "crystalball/internal/analysis/testdata/callers"
	pkgs, err := Load(".", "./testdata/callers/...")
	if err != nil {
		t.Fatal(err)
	}
	got := callerless(pkgs, func(path string) bool { return strings.HasPrefix(path, fixture+"/") })
	want := []string{fixture + "/a.Callerless", fixture + "/a.Recursive", fixture + "/a.TestOnly"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("callerless = %q, want %q", got, want)
	}
}

// A declKey names a package-level object across packages: each package is
// type-checked on its own, so an imported object is not the definer's
// types.Object, but its package path, receiver type and name are the same.
type declKey struct{ pkg, recv, name string }

func (k declKey) String() string {
	if k.recv == "" {
		return k.pkg + "." + k.name
	}
	return k.pkg + "." + k.recv + "." + k.name
}

// keyOf returns the key of a package-level func, method, type, var or
// const, and false for anything else (locals, fields, builtins). A method of
// a generic type resolves to its origin, so a use through an instantiation
// counts for the declaration.
func keyOf(obj types.Object) (declKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return declKey{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return declKey{fn.Pkg().Path(), recvName(recv.Type()), fn.Name()}, true
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return declKey{}, false
	}
	return declKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// recvName renders a receiver's base type unqualified, type parameters
// included: "T" for T and *T, "slab[T]" for a generic slab's method.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.TypeString(t, func(*types.Package) string { return "" })
}

// callerless returns, sorted, every top-level declaration of a subject
// package that no code in pkgs references, apart from its own declaration
// (for a method, its receiver type's methods). main and init are entry
// points, not subjects. A method also counts as referenced when its receiver
// implements an interface that declares it and that some package's code
// uses: heap.Interface for a heap's Push, rand.Source for a source's Int63.
func callerless(pkgs []*Package, subject func(path string) bool) []string {
	used := map[declKey]bool{}
	decls := map[declKey]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, unit := range units(f) {
				own := declared(pkg, unit)
				if subject(pkg.ImportPath) {
					for _, k := range own {
						decls[k] = true
					}
				}
				ast.Inspect(unit, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k, ok := keyOf(pkg.TypesInfo.Uses[id]); ok && !slices.Contains(own, k) {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}
	// A used interface keeps alive the methods of every subject type that
	// implements it. Packages are checked apart, so an interface and a type
	// are matched by method names and signatures printed with full package
	// paths, not by types.Implements.
	ifaces := map[string][]*types.Func{}
	for _, pkg := range pkgs {
		for _, iface := range usedInterfaces(pkg) {
			key := types.TypeString(iface, nil)
			if ifaces[key] != nil {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				ifaces[key] = append(ifaces[key], iface.Method(i))
			}
		}
	}
	for _, pkg := range pkgs {
		if !subject(pkg.ImportPath) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for _, methods := range ifaces {
				implemented := make([]types.Object, 0, len(methods))
				for _, m := range methods {
					mpkg := m.Pkg() // an unexported name is looked up in its package
					if mpkg != nil && mpkg.Path() == tn.Pkg().Path() {
						mpkg = tn.Pkg()
					}
					sel := mset.Lookup(mpkg, m.Name())
					if sel == nil || signature(sel.Type()) != signature(m.Type()) {
						break
					}
					implemented = append(implemented, sel.Obj())
				}
				if len(implemented) == len(methods) {
					for _, obj := range implemented {
						if k, ok := keyOf(obj); ok {
							used[k] = true
						}
					}
				}
			}
		}
	}
	var out []string
	for k := range decls {
		if !used[k] {
			out = append(out, k.String())
		}
	}
	sort.Strings(out)
	return out
}

// units splits a file into its declarations: a func or method, or one spec
// of a type, var or const group, so that a const used by the next const of
// its group is used.
func units(f *ast.File) []ast.Node {
	var out []ast.Node
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				out = append(out, s)
			}
		}
	}
	return out
}

// declared returns the keys a unit defines. A method's include its
// receiver type, so a type's own methods do not keep it alive.
func declared(pkg *Package, unit ast.Node) []declKey {
	var keys []declKey
	add := func(id *ast.Ident) {
		if k, ok := keyOf(pkg.TypesInfo.Defs[id]); ok && id.Name != "_" {
			keys = append(keys, k)
		}
	}
	switch u := unit.(type) {
	case *ast.FuncDecl:
		if u.Recv == nil && (u.Name.Name == "main" || u.Name.Name == "init") {
			return nil
		}
		add(u.Name)
		if len(keys) == 1 && keys[0].recv != "" {
			typ, _, _ := strings.Cut(keys[0].recv, "[")
			keys = append(keys, declKey{keys[0].pkg, "", typ})
		}
	case *ast.TypeSpec:
		add(u.Name)
	case *ast.ValueSpec:
		for _, id := range u.Names {
			add(id)
		}
	}
	return keys
}

// signature prints a type with full package paths and without parameter
// names, which an implementation need not share with its interface.
func signature(t types.Type) string {
	switch t := t.(type) {
	case *types.Signature:
		var b strings.Builder
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			b.WriteString("(")
			for i := 0; i < tup.Len(); i++ {
				b.WriteString(signature(tup.At(i).Type()) + ",")
			}
			b.WriteString(")")
		}
		if t.Variadic() {
			b.WriteString("...")
		}
		return "func" + b.String()
	case *types.Pointer:
		return "*" + signature(t.Elem())
	case *types.Slice:
		return "[]" + signature(t.Elem())
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), signature(t.Elem()))
	case *types.Map:
		return "map[" + signature(t.Key()) + "]" + signature(t.Elem())
	case *types.Chan:
		return fmt.Sprintf("chan%d %s", t.Dir(), signature(t.Elem()))
	}
	return types.TypeString(t, nil)
}

// usedInterfaces returns the interfaces with methods that pkg's code
// mentions: the type of any expression, or a part of it (an element, a
// parameter, a result), such as heap.Push's heap.Interface.
func usedInterfaces(pkg *Package) []*types.Interface {
	seen := map[types.Type]bool{}
	var out []*types.Interface
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if iface, ok := u.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				out = append(out, u)
			}
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Chan:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type())
			}
		}
	}
	for _, tv := range pkg.TypesInfo.Types {
		walk(tv.Type)
	}
	// fmt asserts fmt.Stringer on every value it formats.
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "fmt" {
			walk(imp.Scope().Lookup("Stringer").Type())
		}
	}
	return out
}
