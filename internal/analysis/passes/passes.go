// Package passes registers the crystalvet analyzer suite.
package passes

import (
	"strings"

	"crystalball/internal/analysis"
	"crystalball/internal/analysis/passes/cloneinto"
	"crystalball/internal/analysis/passes/hashmaint"
	"crystalball/internal/analysis/passes/hotpathalloc"
	"crystalball/internal/analysis/passes/maporder"
	"crystalball/internal/analysis/passes/rules"
)

// All is the crystalvet suite, in reporting order.
var All = []*analysis.Analyzer{
	maporder.Analyzer,
	hotpathalloc.Analyzer,
	hashmaint.Analyzer,
	cloneinto.Analyzer,
	rules.Analyzer,
}

// ByName resolves a comma-separated pass selection ("" = all).
func ByName(names string) ([]*analysis.Analyzer, bool) {
	if names == "" {
		return All, true
	}
	index := make(map[string]*analysis.Analyzer, len(All))
	for _, a := range All {
		index[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' }) {
		a, ok := index[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}
