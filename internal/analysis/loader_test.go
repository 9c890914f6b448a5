package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// TestLoadTypeChecks loads real module packages through the export-data
// importer and spot-checks that type information is populated — the
// foundation every pass builds on. The checker (internal/mc) ranges over no
// map at all, by design; internal/sm's sorted encoders do, so the pair
// still shows that a range's map type resolves.
func TestLoadTypeChecks(t *testing.T) {
	pkgs, err := Load("../..", "./internal/mc", "./internal/sm")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	paths := map[string]bool{}
	for _, pkg := range pkgs {
		paths[pkg.ImportPath] = true
	}
	if len(pkgs) != 2 || !paths["crystalball/internal/mc"] || !paths["crystalball/internal/sm"] {
		t.Fatalf("got %d packages %v, want internal/mc and internal/sm", len(pkgs), paths)
	}
	// Every range statement in the packages must have resolvable type info.
	maps := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv := pkg.TypesInfo.TypeOf(rs.X)
				if tv == nil {
					t.Errorf("%s: range expression has no type", pkg.Fset.Position(rs.Pos()))
					return true
				}
				if _, isMap := tv.Underlying().(*types.Map); isMap {
					maps++
				}
				return true
			})
		}
	}
	if maps == 0 {
		t.Fatalf("expected at least one range-over-map in internal/sm (NodeSet, ...)")
	}
}
