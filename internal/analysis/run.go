package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Result is the outcome of running analyzers over one package.
type Result struct {
	// Diagnostics are the surviving (unsuppressed) findings, sorted by
	// position. Directive-validation findings (missing reason, unknown
	// pass name) are included under the pseudo-pass "directive".
	Diagnostics []Diagnostic
	// Suppressed are the findings removed by //crystal:allow directives.
	Suppressed []Diagnostic
}

// RunPackage executes the analyzers over pkg, applies package scoping (when
// scoped is true) and //crystal:allow suppression, and returns the findings.
// A directive may name any pass in known (a superset of analyzers), so
// running a selection leaves the other passes' directives alone.
// analysistest runs unscoped so golden packages need no special import
// paths; the crystalvet driver runs scoped.
func RunPackage(pkg *Package, analyzers, known []*Analyzer, scoped bool) (Result, error) {
	var res Result
	allows, dirDiags := collectAllowances(pkg, known)
	res.Diagnostics = append(res.Diagnostics, dirDiags...)

	var raw []Diagnostic
	for _, a := range analyzers {
		if scoped && !a.Matches(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Pkg:      pkg,
			Report: func(d Diagnostic) {
				d.AnalyzerName = a.Name
				raw = append(raw, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return res, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	for _, d := range raw {
		if suppress(pkg.Fset, allows, d) {
			res.Suppressed = append(res.Suppressed, d)
		} else {
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	sortDiags(pkg.Fset, res.Diagnostics)
	sortDiags(pkg.Fset, res.Suppressed)
	return res, nil
}

// collectAllowances gathers every //crystal:allow directive in the package,
// together with validation findings for malformed ones (missing reason,
// unknown or unsuppressible pass name).
func collectAllowances(pkg *Package, known []*Analyzer) ([]*allowance, []Diagnostic) {
	suppressible := make(map[string]bool, len(known))
	for _, a := range known {
		suppressible[a.Name] = !a.Unsuppressible
	}
	var allows []*allowance
	var diags []Diagnostic
	record := func(c *ast.Comment, funcPos, funcEnd token.Pos) {
		name, reason, ok := parseAllow(c.Text)
		if !ok {
			return
		}
		if ok, isKnown := suppressible[name]; !ok {
			msg := fmt.Sprintf("crystal:allow names unknown pass %q", name)
			if isKnown {
				msg = fmt.Sprintf("crystal:allow cannot suppress %q: the pass states its exceptions itself", name)
			}
			diags = append(diags, Diagnostic{Pos: c.Pos(), Message: msg, AnalyzerName: "directive"})
			return
		}
		if reason == "" {
			diags = append(diags, Diagnostic{
				Pos:          c.Pos(),
				Message:      fmt.Sprintf("crystal:allow(%s) directive missing reason", name),
				AnalyzerName: "directive",
			})
			return
		}
		line := pkg.Fset.Position(c.Pos()).Line
		allows = append(allows, &allowance{
			pass:    name,
			reason:  reason,
			pos:     c.Pos(),
			lines:   [2]int{line, line + 1},
			funcPos: funcPos,
			funcEnd: funcEnd,
		})
	}
	for _, f := range pkg.Files {
		// Function-doc directives cover the whole function body.
		docGroups := make(map[*ast.CommentGroup]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			docGroups[fd.Doc] = true
			for _, c := range fd.Doc.List {
				record(c, fd.Pos(), fd.End())
			}
		}
		for _, cg := range f.Comments {
			if docGroups[cg] {
				continue
			}
			for _, c := range cg.List {
				record(c, token.NoPos, token.NoPos)
			}
		}
	}
	return allows, diags
}

// suppress reports whether some allowance covers the diagnostic: same line
// as the directive, the line after it, or anywhere in the function whose doc
// comment carries it.
func suppress(fset *token.FileSet, allows []*allowance, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, a := range allows {
		if a.pass != d.AnalyzerName {
			continue
		}
		if a.funcPos.IsValid() {
			if d.Pos >= a.funcPos && d.Pos <= a.funcEnd {
				a.used = true
				return true
			}
			continue
		}
		if fset.Position(a.pos).Filename != pos.Filename {
			continue
		}
		if pos.Line == a.lines[0] || pos.Line == a.lines[1] {
			a.used = true
			return true
		}
	}
	return false
}

func sortDiags(fset *token.FileSet, diags []Diagnostic) {
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
}
