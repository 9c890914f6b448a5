package scenario_test

import (
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// TestBudgetPrecedence pins the one documented resolution order for a
// deployment's per-round checker budget (Scenario.roundBudget):
//
//	states        o.MCStates    >  RoundBudget.States   >  controller default
//	workers       o.Workers     >  RoundBudget.Workers  >  GOMAXPROCS
//
// The scenario under test is a copy of randtree with RoundBudget rewritten
// per case; the result is observed through the controller.Config that Deploy
// would install.
func TestBudgetPrecedence(t *testing.T) {
	cases := []struct {
		label       string
		roundBudget mc.Budget
		opts        scenario.DeployOptions
		wantStates  int
		wantWorkers int
	}{
		{
			label:       "scenario states feed the budget",
			roundBudget: mc.Budget{States: 9000},
			wantStates:  9000,
		},
		{
			label:       "MCStates beats scenario states",
			roundBudget: mc.Budget{States: 9000},
			opts:        scenario.DeployOptions{MCStates: 1234},
			wantStates:  1234,
		},
		{
			label:       "Workers beats scenario workers",
			roundBudget: mc.Budget{States: 9000, Workers: 3},
			opts:        scenario.DeployOptions{Workers: 5},
			wantStates:  9000,
			wantWorkers: 5,
		},
		{
			label:       "scenario workers survive zero Workers",
			roundBudget: mc.Budget{States: 9000, Workers: 3},
			wantStates:  9000,
			wantWorkers: 3,
		},
		{
			label:      "nothing set leaves the controller default",
			wantStates: 20000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			sc := *scenario.MustLookup("randtree")
			sc.RoundBudget = tc.roundBudget
			opts := tc.opts
			opts.Control = scenario.Debug
			cfg, err := sc.ControllerConfig(opts)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Budget.States != tc.wantStates {
				t.Errorf("states = %d, want %d", cfg.Budget.States, tc.wantStates)
			}
			if cfg.Budget.Workers != tc.wantWorkers {
				t.Errorf("workers = %d, want %d", cfg.Budget.Workers, tc.wantWorkers)
			}
		})
	}
}
