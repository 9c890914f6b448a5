package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testSupport are the packages that exist for other packages' tests. Neither
// guard holds their declarations or fields to a non-test user.
var testSupport = []struct{ path, why string }{
	{"crystalball/internal/testsvc", "the toy services the checker's, controller's and runtime's tests drive"},
	{"crystalball/internal/analysis/analysistest", "the golden-file harness every crystalvet pass test runs"},
}

// subject reports whether the guards hold a package's declarations to a
// non-test user: cmd/, internal/ and examples/ less testSupport. bench/
// counts as a user, not as a subject.
func subject(path string) bool {
	for _, p := range testSupport {
		if path == p.path {
			return false
		}
	}
	for _, dir := range []string{"cmd", "internal", "examples"} {
		if strings.HasPrefix(path, "crystalball/"+dir+"/") {
			return true
		}
	}
	return false
}

// callerlessAllowed are the declarations the guard lets stand without a
// non-test caller, each with its reason, named as the guard prints them.
// There is no in-source marker: a declaration that must stay callerless is a
// row here.
var callerlessAllowed = []struct{ name, why string }{
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
	exceptRows(t, callerless(loadModule(t), subject), callerlessAllowed, "no non-test code references it")
}

// unreadAllowed are the struct fields the field guard lets stand without a
// non-test reader, each with its reason, named as the guard prints them.
var unreadAllowed = []struct{ name, why string }{
	{"crystalball/internal/mc.Result.LocalStates", "the differential oracles' opt-in comparison set: a search records it only when a test asks"},
	{"crystalball/internal/mc.Result.ClaimedStates", "the differential oracles' opt-in comparison set: a search records it only when a test asks"},
}

// TestEveryFieldIsRead loads the whole module and fails on every field of a
// package-level struct type in the guard's subjects that no non-test code
// reads. A write is not a read: the target of = or op=, the operand of ++
// or --, and a composite-literal key. To mend a finding, delete the field
// and whatever only it kept alive, or have a test assert the behaviour the
// field recorded through what the program uses; a row of unreadAllowed, with
// its reason, is the last resort.
func TestEveryFieldIsRead(t *testing.T) {
	exceptRows(t, unread(loadModule(t), subject), unreadAllowed, "no non-test code reads it")
}

// exceptRows fails on every finding that no row names, itself or as the
// declaration it belongs to (a type's row covers its methods and fields), and
// on every row that names no finding: a stale row is dropped, not kept.
func exceptRows(t *testing.T, findings []string, rows []struct{ name, why string }, complaint string) {
	t.Helper()
	matched := map[string]bool{}
	for _, name := range findings {
		allowed := false
		for _, r := range rows {
			if name == r.name || strings.HasPrefix(name, r.name+".") {
				matched[r.name], allowed = true, true
			}
		}
		if !allowed {
			t.Errorf("%s: %s", name, complaint)
		}
	}
	for _, r := range rows {
		if !matched[r.name] {
			t.Errorf("row %s matches no finding: drop it", r.name)
		}
	}
}

// module is the whole module, loaded once for every test that reads it.
var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

func loadModule(t *testing.T) []*Package {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.err = Load(moduleRoot, "./...") })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
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

// TestFieldResolver runs the field guard's resolver over the same fixture:
// fields only assigned, incremented, set by a composite-literal key or read
// from a test are reported; a field read directly, through an embedded one
// or as part of a map key, and a generic type's field, are not.
func TestFieldResolver(t *testing.T) {
	const fixture = "crystalball/internal/analysis/testdata/callers"
	pkgs, err := Load(".", "./testdata/callers/...")
	if err != nil {
		t.Fatal(err)
	}
	got := unread(pkgs, func(path string) bool { return strings.HasPrefix(path, fixture+"/") })
	want := []string{fixture + "/a.record.assigned", fixture + "/a.record.bumped", fixture + "/a.record.keyed", fixture + "/a.record.testRead"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unread = %q, want %q", got, want)
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

// unread returns, sorted, every field of a subject package's package-level
// struct type that no code in pkgs reads, named pkg.Type.Field. Any use of a
// field is a read except the target of = or op=, the operand of ++ or --, and
// a composite-literal key. A field reached through an embedded one reads the
// embedded field, and a struct that keys a map type reads every field, its
// nested structs' included, since the map compares keys whole.
func unread(pkgs []*Package, subject func(path string) bool) []string {
	// Each package is checked apart, so a field imported from export data
	// is not the definer's types.Var: fields are indexed per types.Package,
	// lazily, the first time one of its fields is met.
	fields := map[*types.Var]declKey{}
	indexed := map[*types.Package]bool{}
	index := func(p *types.Package) {
		if indexed[p] {
			return
		}
		indexed[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Name() != "_" {
						fields[f] = declKey{p.Path(), name, f.Name()}
					}
				}
			}
		}
	}
	read := map[declKey]bool{}
	markRead := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != nil {
			v = v.Origin()
			index(v.Pkg())
			if k, ok := fields[v]; ok {
				read[k] = true
			}
		}
	}
	// A struct cannot hold itself by value, so the recursion ends.
	var readWhole func(t types.Type)
	readWhole = func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				markRead(st.Field(i))
				readWhole(st.Field(i).Type())
			}
		}
	}
	for _, pkg := range pkgs {
		if subject(pkg.ImportPath) {
			index(pkg.Types)
		}
		for _, f := range pkg.Files {
			writes := written(f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if !writes[n] {
						markRead(pkg.TypesInfo.Uses[n])
					}
				case *ast.SelectorExpr:
					// x.f through an embedded e is x.e.f: e is read.
					if sel := pkg.TypesInfo.Selections[n]; sel != nil {
						t := sel.Recv()
						for _, i := range sel.Index()[:len(sel.Index())-1] {
							if p, ok := t.Underlying().(*types.Pointer); ok {
								t = p.Elem()
							}
							e := t.Underlying().(*types.Struct).Field(i)
							markRead(e)
							t = e.Type()
						}
					}
				}
				return true
			})
		}
		for _, tv := range pkg.TypesInfo.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readWhole(m.Key())
			}
		}
	}
	var out []string
	for _, k := range fields {
		if subject(k.pkg) && !read[k] && !slices.Contains(out, k.String()) {
			out = append(out, k.String())
		}
	}
	sort.Strings(out)
	return out
}

// written returns the identifiers of f that name a field only to write it:
// the field selected by an assignment's target or an inc/dec operand, and a
// composite literal's key. The set may hold identifiers that name no field
// (a map literal's key); only fields are looked up in it.
func written(f *ast.File) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
		}
		return true
	})
	return writes
}
