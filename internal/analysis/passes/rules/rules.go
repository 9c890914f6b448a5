// Package rules is the crystalvet pass that holds the repository's design
// rules as one table. A row names the objects or syntactic forms it forbids,
// the packages it covers, the sites where the form is allowed, and why.
// Forms are resolved through types.Info: an aliased import or a reformatted
// line does not hide a hit, and a local identifier that only shares a name
// is not one. `crystalvet -list` prints every row. A row's exceptions are
// its Allow sites, stated once, in the table.
package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"

	"crystalball/internal/analysis"
)

const (
	smPkg         = "crystalball/internal/sm"
	mcPkg         = "crystalball/internal/mc"
	distPkg       = "crystalball/internal/dist"
	servicesPkg   = "crystalball/internal/services"
	controllerPkg = "crystalball/internal/controller"
)

// program is the module's code proper: the commands, the internal packages
// and the examples. The benchmark harness (bench) is outside it.
var program = []string{"crystalball/cmd", "crystalball/internal", "crystalball/examples"}

// Table is the repository's design rules, one row each.
var Table = []Rule{
	{
		Name:   "timer-set",
		Forbid: MapSet{Pkg: smPkg, Type: "TimerID"},
		In:     program,
		Reason: "a set of pending timers is an sm.TimerSet, one sorted representation encoded one way",
	},
	{
		Name: "one-executor",
		Forbid: Uses{
			smPkg + ".Service.HandleMessage", smPkg + ".Service.HandleTimer", smPkg + ".Service.HandleApp",
			smPkg + ".Service.HandleTransportError", smPkg + ".StableStore.RestoreStable",
		},
		In:     program,
		Allow:  []string{smPkg, servicesPkg},
		Reason: "an event becomes a handler call, and a crashed node gets its disk back, only in sm.Deliver and sm.Restart (a service may call its own handlers): a handler run anywhere else is a second executor",
	},
	{
		Name:   "one-event-switch",
		Forbid: Switch{Pkg: smPkg, Type: "EventKey", Field: "Kind"},
		In:     program,
		Allow:  []string{smPkg, mcPkg + ".(*Search).apply"},
		Reason: "an event's kind selects its key text and handler in sm and its enabledness in the checker's one successor constructor; every other layer handles an sm.Event as one value",
	},
	{
		Name:   "one-wait",
		Forbid: Uses{distPkg + ".Coordinator.nextArrival"},
		In:     program,
		Allow:  []string{distPkg + ".(*Coordinator).wait"},
		Reason: "the coordinator waits in one place, so relay, report and abort share one death rule",
	},
	{
		Name:   "one-check-config",
		Forbid: Mirror{Pkg: mcPkg, Type: "Config"},
		In:     []string{controllerPkg},
		Reason: "a round runs the mc.Config the controller holds (controller.Config.Check): a checker setting declared again as a controller field is a second copy to keep equal",
	},
	{
		Name: "wall-clock",
		Forbid: Uses{
			"time.Now", "time.Since", "time.Until", "time.Sleep", "time.After",
			"time.AfterFunc", "time.Tick", "time.NewTicker", "time.NewTimer",
		},
		In:     analysis.DeterministicPackages,
		Allow:  []string{mcPkg + ".(*Config).defaults", distPkg + ".NewCoordinator"},
		Reason: "simulated and checked code reads only virtual or injected clocks, so same-seed runs replay; a wall budget reads the injected Now that mc.Config and dist.CoordinatorConfig default to time.Now",
	},
	{
		Name: "global-rand",
		Forbid: Uses{
			"math/rand.Seed", "math/rand.Read", "math/rand.Perm", "math/rand.Shuffle",
			"math/rand.Int", "math/rand.Intn", "math/rand.Int31", "math/rand.Int31n",
			"math/rand.Int63", "math/rand.Int63n", "math/rand.Uint32", "math/rand.Uint64",
			"math/rand.Float32", "math/rand.Float64", "math/rand.ExpFloat64", "math/rand.NormFloat64",
			"math/rand/v2.N", "math/rand/v2.Perm", "math/rand/v2.Shuffle",
			"math/rand/v2.Int", "math/rand/v2.IntN", "math/rand/v2.Int32", "math/rand/v2.Int32N",
			"math/rand/v2.Int64", "math/rand/v2.Int64N", "math/rand/v2.Uint", "math/rand/v2.UintN",
			"math/rand/v2.Uint32", "math/rand/v2.Uint32N", "math/rand/v2.Uint64", "math/rand/v2.Uint64N",
			"math/rand/v2.Float32", "math/rand/v2.Float64", "math/rand/v2.ExpFloat64", "math/rand/v2.NormFloat64",
		},
		Reason: "the process-global source is seeded once per process and shared by every goroutine, so a draw from it escapes same-seed replay: every draw comes from a seeded *rand.Rand (sm.NewRand, the checker's per-worker source)",
	},
}

// Analyzer enforces Table.
var Analyzer = newAnalyzer(Table)

func newAnalyzer(rows []Rule) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "rules",
		Doc:  "enforce the design-rule table below: each row forbids objects or forms, resolved through types, outside its allowed sites",
		Run: func(pass *analysis.Pass) error {
			for _, r := range rows {
				r.check(pass)
			}
			return nil
		},
	}
}

// A Rule is one row of the table.
type Rule struct {
	// Name identifies the row in findings and in crystalvet -list.
	Name string
	// Forbid is the object or syntactic form the row forbids.
	Forbid Form
	// In are the import-path prefixes the row covers; nil covers every
	// package the pass runs on.
	In []string
	// Allow are the sites where the form is allowed: an import-path prefix,
	// or one function written <import path>.<name>, .(*T).<name> or
	// .T.<name>.
	Allow []string
	// Reason says why the form is forbidden.
	Reason string
}

// String renders the row for crystalvet -list.
func (r Rule) String() string {
	in, allow := "every package", "nowhere"
	if r.In != nil {
		in = strings.Join(r.In, ", ")
	}
	if r.Allow != nil {
		allow = strings.Join(r.Allow, ", ")
	}
	return fmt.Sprintf("%s\n    forbids %s\n    in %s; allowed in %s\n    because %s", r.Name, r.Forbid, in, allow, r.Reason)
}

func (r Rule) check(pass *analysis.Pass) {
	pkgPath := pass.Pkg.ImportPath
	if r.In != nil && !underAny(pkgPath, r.In) {
		return
	}
	for _, f := range pass.Pkg.Files {
		r.Forbid.find(pass.Pkg, f, func(pos token.Pos, what string) {
			if !r.allowed(pkgPath, enclosingFunc(f, pos)) {
				pass.Reportf(pos, "%s: %s: %s", r.Name, what, r.Reason)
			}
		})
	}
}

// allowed reports whether one of the row's Allow sites covers function fn
// (empty outside any function) of package pkgPath.
func (r Rule) allowed(pkgPath, fn string) bool {
	for _, site := range r.Allow {
		sitePkg, siteFn := splitSite(site)
		if siteFn == "" && under(pkgPath, sitePkg) || siteFn != "" && pkgPath == sitePkg && fn == siteFn {
			return true
		}
	}
	return false
}

// splitSite splits "a/b/pkg.(*T).m" into "a/b/pkg" and "(*T).m"; a bare
// import path has no function.
func splitSite(site string) (pkgPath, fn string) {
	slash := strings.LastIndexByte(site, '/')
	if dot := strings.IndexByte(site[slash+1:], '.'); dot >= 0 {
		return site[:slash+1+dot], site[slash+2+dot:]
	}
	return site, ""
}

func under(pkgPath, prefix string) bool {
	return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
}

func underAny(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if under(pkgPath, p) {
			return true
		}
	}
	return false
}

// enclosingFunc names the function declared around pos as an Allow site
// writes it: "f", "T.m" or "(*T).m"; "" outside every function.
func enclosingFunc(f *ast.File, pos token.Pos) string {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		if fd.Recv == nil {
			return fd.Name.Name
		}
		recv := fd.Recv.List[0].Type
		if s, ok := recv.(*ast.StarExpr); ok {
			return "(*" + types.ExprString(s.X) + ")." + fd.Name.Name
		}
		return types.ExprString(recv) + "." + fd.Name.Name
	}
	return ""
}

// A Form is a kind of forbidden object or syntax.
type Form interface {
	// String describes the form for crystalvet -list.
	String() string
	// find reports every occurrence of the form in f, a file of pkg.
	find(pkg *analysis.Package, f *ast.File, report func(pos token.Pos, what string))
}

// MapSet forbids a set of the named type Pkg.Type held as a map: a map
// keyed by it whose value is bool or struct{}.
type MapSet struct{ Pkg, Type string }

func (m MapSet) String() string {
	return "a set of " + qualified(m.Pkg, m.Type) + " held as a map (to bool or struct{})"
}

func (m MapSet) find(pkg *analysis.Package, f *ast.File, report func(token.Pos, string)) {
	info := pkg.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		if mt, ok := n.(*ast.MapType); ok && isNamed(info.TypeOf(mt.Key), m.Pkg, m.Type) && isSetValue(info.TypeOf(mt.Value)) {
			report(mt.Pos(), "set of "+qualified(m.Pkg, m.Type)+" held as a map")
		}
		return true
	})
}

// isSetValue reports whether a map with values of type t is a set.
func isSetValue(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.Bool
	case *types.Struct:
		return u.NumFields() == 0
	}
	return false
}

// Uses forbids any use — a call, a function or method value, or a method
// expression — of the listed package-level functions and methods, each
// written as an Allow site writes a function: <import path>.<name> or
// <import path>.<Type>.<Method>. A method of an interface stands for the
// method of that name on every type implementing the interface.
type Uses []string

func (u Uses) String() string {
	var names []string
	methods := false
	for _, n := range u {
		pkgPath, member := splitSite(n)
		names = append(names, qualified(pkgPath, member))
		methods = methods || strings.Contains(member, ".")
	}
	if methods {
		return "a use of " + strings.Join(names, ", ") + " (of an interface's method: of any implementation too)"
	}
	return "a use of " + strings.Join(names, ", ")
}

func (u Uses) find(pkg *analysis.Package, f *ast.File, report func(token.Pos, string)) {
	type target struct {
		name, method string
		iface        *types.Interface // nil for a function or concrete method, which is obj
		obj          *types.Func
	}
	var targets []target
	for _, n := range u {
		pkgPath, member := splitSite(n)
		p := lookupPackage(pkg.Types, pkgPath)
		if p == nil {
			continue // the package cannot reach pkgPath, so it uses none of its objects
		}
		name := qualified(pkgPath, member)
		typeName, method, isMethod := strings.Cut(member, ".")
		if !isMethod {
			if fn, ok := p.Scope().Lookup(member).(*types.Func); ok {
				targets = append(targets, target{name: name, obj: fn})
			}
			continue
		}
		named := namedType(p, typeName)
		if named == nil {
			continue
		}
		if iface, ok := named.Underlying().(*types.Interface); ok {
			targets = append(targets, target{name: name, method: method, iface: iface})
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), false, p, method)
		if fn, ok := obj.(*types.Func); ok {
			targets = append(targets, target{name: name, obj: fn})
		}
	}
	if len(targets) == 0 {
		return
	}
	info := pkg.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		for _, t := range targets {
			if fn.Origin() == t.obj || t.iface != nil && recv != nil && fn.Name() == t.method && implements(recv.Type(), t.iface) {
				report(id.Pos(), "use of "+t.name)
			}
		}
		return true
	})
}

// implements reports whether t, or a pointer to it, implements iface: a
// value-receiver method belongs to a service whose other methods take *T.
func implements(t types.Type, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// Switch forbids a switch statement whose tag is the field Pkg.Type.Field,
// read directly or promoted through an embedding struct.
type Switch struct{ Pkg, Type, Field string }

func (s Switch) String() string {
	return "a switch on " + qualified(s.Pkg, s.Type+"."+s.Field)
}

func (s Switch) find(pkg *analysis.Package, f *ast.File, report func(token.Pos, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		tag, ok := sw.Tag.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel := pkg.TypesInfo.Selections[tag]
		if sel == nil || sel.Kind() != types.FieldVal || sel.Obj().Name() != s.Field {
			return true
		}
		// Walk the embedding path to the struct that declares the field.
		owner := sel.Recv()
		idx := sel.Index()
		for _, i := range idx[:len(idx)-1] {
			owner = deref(owner).Underlying().(*types.Struct).Field(i).Type()
		}
		if isNamed(deref(owner), s.Pkg, s.Type) {
			report(sw.Pos(), "switch on "+qualified(s.Pkg, s.Type+"."+s.Field))
		}
		return true
	})
}

// Mirror forbids a struct field with the name and the type of a field of
// the struct Pkg.Type.
type Mirror struct{ Pkg, Type string }

func (m Mirror) String() string {
	return "a struct field with the name and type of a field of " + qualified(m.Pkg, m.Type)
}

func (m Mirror) find(pkg *analysis.Package, f *ast.File, report func(token.Pos, string)) {
	p := lookupPackage(pkg.Types, m.Pkg)
	if p == nil {
		return
	}
	named := namedType(p, m.Type)
	if named == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	mirrored := make(map[string]types.Type, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		mirrored[st.Field(i).Name()] = st.Field(i).Type()
	}
	ast.Inspect(f, func(n ast.Node) bool {
		fields, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range fields.Fields.List {
			for _, name := range field.Names {
				v, ok := pkg.TypesInfo.Defs[name].(*types.Var)
				if t, same := mirrored[name.Name]; ok && same && types.Identical(v.Type(), t) {
					report(name.Pos(), "field "+name.Name+" mirrors "+qualified(m.Pkg, m.Type+"."+name.Name))
				}
			}
		}
		return true
	})
}

// qualified writes name qualified by its package: a package of this module
// by its name (sm.TimerID), any other by its import path (math/rand/v2.IntN).
func qualified(pkgPath, name string) string {
	if strings.HasPrefix(pkgPath, "crystalball/") {
		pkgPath = path.Base(pkgPath)
	}
	return pkgPath + "." + name
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedType finds the named type name declared in p; nil when p declares
// no such type.
func namedType(p *types.Package, name string) *types.Named {
	tn, _ := p.Scope().Lookup(name).(*types.TypeName)
	if tn == nil {
		return nil
	}
	n, _ := types.Unalias(tn.Type()).(*types.Named)
	return n
}

// lookupPackage finds pkgPath among from and the packages it imports,
// directly or not; nil when none of them is pkgPath.
func lookupPackage(from *types.Package, pkgPath string) *types.Package {
	seen := map[*types.Package]bool{from: true}
	queue := []*types.Package{from}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p.Path() == pkgPath {
			return p
		}
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	return nil
}
