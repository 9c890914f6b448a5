// Chord deep online debugging: reconstruct the live prefix of the paper's
// Figure 10 scenario (B crashed; A's successor now points at C) and run
// consequence prediction from that snapshot, printing the full event path
// to the predicted "predecessor is self while successors exist" violation.
// Then do the same for the Figure 11 ordering-constraint bug.
//
// The staged start states are built by hand (they reproduce a specific
// moment of a live execution); the checker configuration — factory,
// properties, fault model — comes from the chord scenario's registry
// entry, overridden per figure: each figure checks its one property, so the
// scenario's global ring properties are dropped too.
//
//	go run ./examples/chord-debug
package main

import (
	"fmt"
	"log"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/services/chord"
	"crystalball/internal/sm"
)

func main() {
	fmt.Println("=== Figure 10: If Successor is Self, So Is Predecessor ===")
	figure10()
	fmt.Println()
	fmt.Println("=== Figure 11: Node Ordering Constraint ===")
	figure11()
}

// chordSearch returns the chord scenario's checker defaults (factory,
// fault model) for a 3-node staged neighborhood.
func chordSearch() mc.Config {
	cfg, err := scenario.MustLookup("chord").SearchConfig(scenario.Options{Nodes: 3})
	if err != nil {
		log.Fatal(err)
	}
	return cfg
}

func mkRing(factory sm.Factory, id, pred sm.NodeID, succs ...sm.NodeID) *chord.Ring {
	r := factory(id).(*chord.Ring)
	r.Joined = true
	r.Pred = pred
	r.Succs = succs
	return r
}

func figure10() {
	cfg := chordSearch()
	// Live prefix already happened: B (node 2) reset; A (node 1) removed
	// it and now considers C (node 3) its successor; D (node 5) completes
	// the ring. The scenario's fault model (resets + connection breaks)
	// is exactly what this figure needs.
	g := mc.NewGState()
	g.AddNode(1, mkRing(cfg.Factory, 1, 5, 3, 5, 1), sm.TimerSet{chord.TimerStabilize})
	g.AddNode(3, mkRing(cfg.Factory, 3, 1, 5, 1, 3), sm.TimerSet{chord.TimerStabilize})
	g.AddNode(5, mkRing(cfg.Factory, 5, 3, 1, 3, 5), sm.TimerSet{chord.TimerStabilize})

	cfg.Props = props.Set{chord.PropPredSelfImpliesSuccSelf}
	cfg.GlobalProps = nil
	cfg.Mode = mc.Consequence
	cfg.Budget.States = 150000
	cfg.Budget.Violations = 1
	report(mc.NewSearch(cfg).Run(g))
}

func figure11() {
	cfg := chordSearch()
	// A_{i-1}=2 and A_{i-2}=1 both joined through A_i=3 with identical
	// FindPredReply information; node 3 has since stabilised. No faults
	// are needed — the ordering bug is reachable from stabilization
	// alone, so the scenario's fault model is switched off.
	g := mc.NewGState()
	g.AddNode(1, mkRing(cfg.Factory, 1, 3, 3, 1), sm.TimerSet{chord.TimerStabilize})
	g.AddNode(2, mkRing(cfg.Factory, 2, 3, 3, 2), sm.TimerSet{chord.TimerStabilize})
	g.AddNode(3, mkRing(cfg.Factory, 3, 2, 1, 3), sm.TimerSet{chord.TimerStabilize})

	cfg.Props = props.Set{chord.PropNodeOrdering}
	cfg.GlobalProps = nil
	cfg.Mode = mc.Consequence
	cfg.ExploreResets = false
	cfg.ExploreConnBreaks = false
	cfg.Budget.States = 150000
	cfg.Budget.Violations = 1
	report(mc.NewSearch(cfg).Run(g))
}

func report(res *mc.Result) {
	fmt.Printf("explored %d states (max depth %d) in %v\n",
		res.StatesExplored, res.MaxDepthReached, res.Elapsed)
	if len(res.Violations) == 0 {
		fmt.Println("no violation found within budget")
		return
	}
	v := res.Violations[0]
	fmt.Printf("predicted violation of %v, %d steps ahead:\n", v.Properties, len(v.Path))
	for _, ev := range v.Path {
		fmt.Printf("  %s\n", ev.Describe())
	}
}
