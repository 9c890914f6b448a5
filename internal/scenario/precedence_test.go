package scenario_test

import (
	"slices"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/props"
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
			if cfg.Check.Budget.States != tc.wantStates {
				t.Errorf("states = %d, want %d", cfg.Check.Budget.States, tc.wantStates)
			}
			if cfg.Check.Budget.Workers != tc.wantWorkers {
				t.Errorf("workers = %d, want %d", cfg.Check.Budget.Workers, tc.wantWorkers)
			}
		})
	}
}

// TestLiveRoundsCheckWhatMcheckChecks: a scenario's declaration becomes an
// mc.Config in one function, so the search a deployed controller's rounds
// run (ControllerConfig(o).Check) and the one mcheck runs offline
// (SearchConfig) agree on everything but the property set's purpose, the
// tuning the factory is built on and the budget.
func TestLiveRoundsCheckWhatMcheckChecks(t *testing.T) {
	for _, name := range scenario.Names() {
		sc := scenario.MustLookup(name)
		offline, err := sc.SearchConfig(scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, control := range []scenario.Control{scenario.Debug, scenario.Steering} {
			cfg, err := sc.ControllerConfig(scenario.DeployOptions{Control: control})
			if err != nil {
				t.Fatal(err)
			}
			live := cfg.Check
			if got, want := globalNames(live.GlobalProps), globalNames(offline.GlobalProps); !slices.Equal(got, want) {
				t.Errorf("%s/%d: global properties %v live, %v offline", name, control, got, want)
			}
			type shape struct {
				resets, connBreaks, reduce bool
				maxResets                  int
				seed                       int64
			}
			got := shape{live.ExploreResets, live.ExploreConnBreaks, live.Reduce, live.MaxResetsPerPath, live.Seed}
			want := shape{offline.ExploreResets, offline.ExploreConnBreaks, offline.Reduce, offline.MaxResetsPerPath, offline.Seed}
			if got != want {
				t.Errorf("%s/%d: live rounds run %+v, mcheck runs %+v", name, control, got, want)
			}
			if !live.Reduce || live.ExploreResets != sc.Faults.ExploreResets || live.ExploreConnBreaks != sc.Faults.ExploreConnBreaks {
				t.Errorf("%s/%d: %+v does not carry the scenario's declaration %+v", name, control, got, sc.Faults)
			}
		}
	}
}

func globalNames(gs props.GlobalSet) []string {
	var out []string
	for _, g := range gs {
		out = append(out, g.Name)
	}
	return out
}
