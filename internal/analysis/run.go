package analysis

import (
	"fmt"
	"sort"
)

// RunPackage executes the analyzers over pkg, applies package scoping (when
// scoped is true) and returns the findings sorted by position. analysistest
// runs unscoped so golden packages need no special import paths; the
// crystalvet driver runs scoped.
func RunPackage(pkg *Package, analyzers []*Analyzer, scoped bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if scoped && !a.Matches(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Pkg:      pkg,
			Report: func(d Diagnostic) {
				d.AnalyzerName = a.Name
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	fset := pkg.Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].AnalyzerName < diags[j].AnalyzerName
	})
	return diags, nil
}
