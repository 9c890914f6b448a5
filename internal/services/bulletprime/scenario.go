package bulletprime

import (
	"fmt"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// The bulletprime scenario: the Bullet′ block-dissemination mesh with the
// three Table 1 bugs seeded. Offline checking uses a deliberately small
// file (Bullet′ states are heavy); live deployments default to the sizes
// of the paper's staged runs. "bullet" is kept as a lookup alias.
func init() {
	scenario.Register(scenario.Scenario{
		Name:        "bulletprime",
		Aliases:     []string{"bullet"},
		Description: "Bullet' block dissemination mesh (3 seeded bugs, paper §5.2.3)",
		New: func(ids []sm.NodeID, o scenario.Options) (sm.Factory, error) {
			if o.Variant != "" {
				return nil, fmt.Errorf("unknown variant %q", o.Variant)
			}
			fixes := Fix(0)
			if o.Fixed {
				fixes = AllFixes
			}
			return New(Config{
				Members:   ids,
				Source:    ids[0],
				Blocks:    o.Blocks,
				BlockSize: o.BlockSize,
				MaxPeers:  o.Degree,
				Fixes:     fixes,
			}), nil
		},
		Props:       Properties,
		DebugProps:  DebugProperties,
		Check:       scenario.Tuning{Nodes: 4, Blocks: 8, BlockSize: 16 << 10},
		Live:        scenario.Tuning{Nodes: 8, Blocks: 32, BlockSize: 64 << 10},
		Faults:      scenario.Faults{ExploreResets: true},
		RoundBudget: mc.Budget{States: 6000},
	})
}
