package rules

import (
	"go/types"
	"strings"
	"testing"

	"crystalball/internal/analysis"
	"crystalball/internal/analysis/analysistest"
)

// TestRules runs the table as it stands on a package no row allows anything
// in.
func TestRules(t *testing.T) {
	analysistest.Run(t, Analyzer, "testdata/src/a")
}

// golden is the import path of this package's golden packages.
const golden = "crystalball/internal/analysis/passes/rules/testdata/src"

// TestRulesAtTheirSites runs the table on golden stand-ins for the packages
// its rows name — mc, dist, services, controller — with every row's paths
// moved to the stand-ins, so each row's In and Allow sites are exercised:
// the allowed site is no hit and its neighbour is.
func TestRulesAtTheirSites(t *testing.T) {
	moved := []string{mcPkg, distPkg, servicesPkg, controllerPkg}
	rows := make([]Rule, len(Table))
	for i, r := range Table {
		r.In = movePaths(r.In, moved)
		r.Allow = movePaths(r.Allow, moved)
		switch f := r.Forbid.(type) {
		case Uses:
			r.Forbid = Uses(movePaths(f, moved))
		case Mirror:
			f.Pkg = movePath(f.Pkg, moved)
			r.Forbid = f
		}
		rows[i] = r
	}
	a := newAnalyzer(rows)
	for _, pkg := range []string{"mc", "dist", "services", "controller"} {
		t.Run(pkg, func(t *testing.T) { analysistest.Run(t, a, "testdata/src/"+pkg) })
	}
}

func movePaths(paths, moved []string) []string {
	var out []string
	for _, p := range paths {
		out = append(out, movePath(p, moved))
	}
	return out
}

// movePath rewrites a path or site under one of the moved packages to the
// golden stand-in of that package.
func movePath(p string, moved []string) string {
	for _, m := range moved {
		if p == m || strings.HasPrefix(p, m+".") || strings.HasPrefix(p, m+"/") {
			return golden + "/" + p[len("crystalball/internal/"):]
		}
	}
	return p
}

// TestTableNamesLiveCode loads the packages the table names and checks that
// every type, function, method, field and allowed function a row names
// exists: a row whose object was renamed would otherwise match nothing,
// silently.
func TestTableNamesLiveCode(t *testing.T) {
	pkgs, err := analysis.Load("../../../..", smPkg, mcPkg, distPkg, controllerPkg, "time", "math/rand", "math/rand/v2")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p.Types
	}
	named := func(pkgPath, name string) *types.Named {
		t.Helper()
		p := byPath[pkgPath]
		if p == nil {
			t.Fatalf("package %s not loaded", pkgPath)
		}
		n := namedType(p, name)
		if n == nil {
			t.Errorf("%s.%s does not exist", pkgPath, name)
		}
		return n
	}
	member := func(n *types.Named, name string) {
		t.Helper()
		if n == nil {
			return
		}
		var typ types.Type = types.NewPointer(n)
		if types.IsInterface(n) {
			typ = n
		}
		if obj, _, _ := types.LookupFieldOrMethod(typ, true, n.Obj().Pkg(), name); obj == nil {
			t.Errorf("%s has no field or method %s", n, name)
		}
	}
	// function checks a site or Uses entry written as Allow sites write a
	// function.
	function := func(site string) {
		t.Helper()
		pkgPath, fn := splitSite(site)
		recv, method, isMethod := strings.Cut(strings.NewReplacer("(*", "", ")", "").Replace(fn), ".")
		if isMethod {
			member(named(pkgPath, recv), method)
		} else if _, ok := byPath[pkgPath].Scope().Lookup(fn).(*types.Func); !ok {
			t.Errorf("%s is no function", site)
		}
	}
	for _, r := range Table {
		switch f := r.Forbid.(type) {
		case Uses:
			for _, n := range f {
				function(n)
			}
		case MapSet:
			named(f.Pkg, f.Type)
		case Switch:
			member(named(f.Pkg, f.Type), f.Field)
		case Mirror:
			named(f.Pkg, f.Type)
		}
		for _, site := range r.Allow {
			if _, fn := splitSite(site); fn != "" {
				function(site)
			}
		}
	}
}
