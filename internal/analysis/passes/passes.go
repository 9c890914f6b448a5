// Package passes registers the crystalvet analyzer suite.
package passes

import (
	"crystalball/internal/analysis"
	"crystalball/internal/analysis/passes/cloneinto"
	"crystalball/internal/analysis/passes/globalrand"
	"crystalball/internal/analysis/passes/hashmaint"
	"crystalball/internal/analysis/passes/hotpathalloc"
	"crystalball/internal/analysis/passes/maporder"
	"crystalball/internal/analysis/passes/walltime"
)

// All is the crystalvet suite, in reporting order.
var All = []*analysis.Analyzer{
	maporder.Analyzer,
	walltime.Analyzer,
	globalrand.Analyzer,
	hotpathalloc.Analyzer,
	hashmaint.Analyzer,
	cloneinto.Analyzer,
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
	for _, n := range splitComma(names) {
		a, ok := index[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
