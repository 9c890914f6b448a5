package randtree

import (
	"fmt"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// The randtree scenario: the paper's control-tree overlay with the seven
// Table 1 bugs seeded. Offline checking uses the service's natural degree
// bound; live deployments run the degree-3 configuration of the paper's
// staged experiments.
func init() {
	scenario.Register(scenario.Scenario{
		Name:        "randtree",
		Description: "random degree-bounded overlay tree (7 seeded bugs, paper §1.2)",
		New: func(ids []sm.NodeID, o scenario.Options) (sm.Factory, error) {
			if o.Variant != "" {
				return nil, fmt.Errorf("unknown variant %q", o.Variant)
			}
			fixes := Fix(0)
			if o.Fixed {
				fixes = AllFixes
			}
			return New(Config{Bootstrap: ids[:1], MaxChildren: o.Degree, Fixes: fixes}), nil
		},
		Props:       Properties,
		Check:       scenario.Tuning{Nodes: 5},
		Live:        scenario.Tuning{Nodes: 12, Degree: 3},
		Faults:      scenario.Faults{ExploreResets: true},
		RoundBudget: mc.Budget{States: 8000},
		Join:        func() sm.AppCall { return AppJoin{} },
		Joined:      func(s sm.Service) bool { return s.(*Tree).Joined },
	})
}
