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
	// Two budgets that stop the search inside chord's leaf level, at one
	// worker: the state budget past its violating leaf, the violation quota
	// at it, with clean leaves claimed both before and after it. Admission
	// order decides what is explored; the values were recorded on the commit
	// that still queued every clean leaf as an entry of its own.
	for _, row := range []struct {
		name   string
		budget mc.Budget
		want   leafStop
	}{
		{"states inside the leaf level", mc.Budget{Depth: 5, States: 400, Workers: 1}, leafStop{400, 5, "states", 1}},
		{"violation quota at a leaf", mc.Budget{Depth: 5, Violations: 1, Workers: 1}, leafStop{333, 5, "violations", 1}},
	} {
		t.Run("chord/"+row.name, func(t *testing.T) {
			start, cfg, err := scenario.InitialState("chord", scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mode, cfg.Budget = mc.Exhaustive, row.budget
			res := mc.NewSearch(cfg).Run(start)
			got := leafStop{res.StatesExplored, res.MaxDepthReached, res.StopReason, len(res.Violations)}
			if got != row.want {
				t.Fatalf("%+v, recorded %+v", got, row.want)
			}
			if v := res.Violations[0]; v.Depth != 5 || len(v.Path) != 5 {
				t.Fatalf("violation %v at depth %d via %d events, want the leaf's", v.Properties, v.Depth, len(v.Path))
			}
		})
	}
}

// leafStop is what a budget-stopped search explored: its states, depth and
// stop reason, and the violations it reported.
type leafStop struct {
	states, depth int
	stop          string
	violations    int
}
