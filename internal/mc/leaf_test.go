package mc_test

import (
	"fmt"
	"slices"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
)

// leafOracleDepths bounds each registered scenario's leaf oracle: a few
// dozen to a few thousand states at the default node count. Where the
// bugged service's exhaustive search has a violation within reach
// (violating), the bound is a depth at which one sits.
var leafOracleDepths = map[string]struct {
	depth     int
	violating bool
}{
	"bulletprime": {4, true},
	"chord":       {5, true},
	"gcounter":    {6, true},
	"lwwmap":      {6, true},
	"orset":       {6, true},
	"paxos":       {5, false},
	"randtree":    {5, false},
}

// TestLeafOracle runs the depth-bound differential oracle (mc.CheckLeafOracle)
// over every registered scenario, buggy and fixed, in both modes, at 1 and 2
// workers: what a search checks where it builds it at the bound, it must
// claim, record and report as the search one level deeper does. In the
// violating rows' buggy exhaustive search a violation is a leaf, published
// because it violates; chord's is [GlobalRingConsistency] at depth 5.
func TestLeafOracle(t *testing.T) {
	for _, name := range scenario.Names() {
		row, ok := leafOracleDepths[name]
		if !ok {
			t.Errorf("%s: no oracle depth: add the scenario to leafOracleDepths", name)
			continue
		}
		for _, fixed := range []bool{false, true} {
			for _, mode := range []mc.Mode{mc.Exhaustive, mc.Consequence} {
				t.Run(fmt.Sprintf("%s/fixed=%v/%v", name, fixed, mode), func(t *testing.T) {
					start, cfg, err := scenario.InitialState(name, scenario.Options{Fixed: fixed})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Mode = mode
					atBound := mc.CheckLeafOracle(t, cfg, start, row.depth)
					if !row.violating || fixed || mode != mc.Exhaustive {
						return
					}
					if len(atBound) == 0 {
						t.Fatalf("no violation at the bound, depth %d", row.depth)
					}
					if name == "chord" && !slices.ContainsFunc(atBound, func(v mc.Violation) bool {
						return slices.Equal(v.Properties, []string{"GlobalRingConsistency"})
					}) {
						t.Fatalf("violations at the bound %v, want [GlobalRingConsistency]", atBound)
					}
				})
			}
		}
	}
}
