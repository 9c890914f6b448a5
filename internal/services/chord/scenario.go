package chord

import (
	"fmt"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// The chord scenario: the ring DHT with the three Table 1 bugs seeded.
// Joins are staggered so the ring forms, and the checker's fault model
// includes connection breaks — the Figure 10 violation hinges on them.
func init() {
	scenario.Register(scenario.Scenario{
		Name:        "chord",
		Description: "ring DHT with stabilization (3 seeded bugs, paper §5.2.2)",
		New: func(ids []sm.NodeID, o scenario.Options) (sm.Factory, error) {
			if o.Variant != "" {
				return nil, fmt.Errorf("unknown variant %q", o.Variant)
			}
			fixes := Fix(0)
			if o.Fixed {
				fixes = AllFixes
			}
			return New(Config{Bootstrap: ids[:1], SuccListLen: o.Degree, Fixes: fixes}), nil
		},
		Props:       Properties,
		GlobalProps: GlobalProperties,
		Check:       scenario.Tuning{Nodes: 5},
		Live:        scenario.Tuning{Nodes: 12},
		Faults:      scenario.Faults{ExploreResets: true, ExploreConnBreaks: true},
		RoundBudget: mc.Budget{States: 12000},
		Join:        func() sm.AppCall { return AppJoin{} },
		JoinStagger: 700 * time.Millisecond,
	})
}
