package paxos

import (
	"fmt"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// The paxos scenario: single-decree Paxos with the paper's two injected
// bugs. The default variant injects both; "bug1" (Accept built from the
// last Promise) and "bug2" (promises not persisted across resets) inject
// exactly one, which is how the Figure 14 experiment sweeps them.
func init() {
	scenario.Register(scenario.Scenario{
		Name:        "paxos",
		Description: "single-decree Paxos, variants bug1|bug2 (paper §5.4.2)",
		New: func(ids []sm.NodeID, o scenario.Options) (sm.Factory, error) {
			bug1, bug2 := !o.Fixed, !o.Fixed
			switch o.Variant {
			case "":
			case "bug1":
				bug2 = false
			case "bug2":
				bug1 = false
			default:
				return nil, fmt.Errorf("unknown variant %q (paxos: bug1|bug2)", o.Variant)
			}
			return New(Config{Members: ids, Bug1: bug1, Bug2: bug2}), nil
		},
		Props:       Properties,
		GlobalProps: GlobalProperties,
		Check:       scenario.Tuning{Nodes: 3},
		Live:        scenario.Tuning{Nodes: 3},
		// Bug 2 is a lost-promise bug: it only materialises when the
		// checker explores node resets.
		Faults:      scenario.Faults{ExploreResets: true},
		RoundBudget: mc.Budget{States: 15000},
	})
}
