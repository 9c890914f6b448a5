package scenario_test

import (
	"strings"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// TestPolicyPrecedence pins the one documented resolution order for the
// checker budget policy (Scenario.resolvePolicySpec):
//
//	kind          o.Policy      >  spec.Kind         >  "fixed"
//	states        o.MCStates    >  spec.Base.States  >  controller default
//	workers       o.Workers     >  spec.Base.Workers >  GOMAXPROCS
//
// The scenario under test is a copy of randtree with the policy fields
// rewritten per case; the resolved spec is observed through the
// controller.Config that Deploy would install.
func TestPolicyPrecedence(t *testing.T) {
	cases := []struct {
		label string
		// scenario-side declarations
		scPolicy mc.PolicySpec
		// deploy options
		opts scenario.DeployOptions
		// expectations on the resolved spec
		wantKind    string
		wantStates  int
		wantWorkers int
		wantErr     string
	}{
		{
			label:      "scenario CheckerPolicy states feed the resolved spec",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000}},
			wantKind:   mc.PolicyScaled,
			wantStates: 9000,
		},
		{
			label:      "scenario CheckerPolicy without states leaves the controller default",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyAdaptive},
			wantKind:   mc.PolicyAdaptive,
			wantStates: 0,
		},
		{
			label:      "DeployOptions.MCStates beats scenario spec states",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000}},
			opts:       scenario.DeployOptions{MCStates: 1234},
			wantKind:   mc.PolicyScaled,
			wantStates: 1234,
		},
		{
			label:      "DeployOptions.Policy rewrites the kind only",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000}},
			opts:       scenario.DeployOptions{Policy: mc.PolicyAdaptive},
			wantKind:   mc.PolicyAdaptive,
			wantStates: 9000,
		},
		{
			label:       "DeployOptions.Workers beats scenario spec workers",
			scPolicy:    mc.PolicySpec{Base: mc.Budget{States: 9000, Workers: 3}},
			opts:        scenario.DeployOptions{Workers: 5},
			wantStates:  9000,
			wantWorkers: 5,
		},
		{
			label:       "scenario spec workers survive zero DeployOptions.Workers",
			scPolicy:    mc.PolicySpec{Base: mc.Budget{States: 9000, Workers: 3}},
			wantStates:  9000,
			wantWorkers: 3,
		},
		{
			label: "nothing set anywhere leaves states to the controller default",
			// wantStates 0: the controller's policySpec fills 20000.
			wantStates: 0,
		},
		{
			label:   "unknown kind is a Deploy-time error",
			opts:    scenario.DeployOptions{Policy: "warp"},
			wantErr: `unknown policy kind "warp"`,
		},
	}
	// The verbatim-Controller path bypasses resolvePolicySpec; its policy
	// kind must still fail at Deploy, not panic inside controller.New.
	t.Run("verbatim controller config with bad kind is a Deploy error", func(t *testing.T) {
		sc := scenario.MustLookup("randtree")
		cfg, err := sc.ControllerConfig(scenario.DeployOptions{Control: scenario.Debug})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy.Kind = "warp"
		_, err = sc.Deploy(scenario.DeployOptions{Control: scenario.Debug, Controller: &cfg})
		if err == nil || !strings.Contains(err.Error(), `unknown policy kind "warp"`) {
			t.Fatalf("Deploy error = %v, want unknown policy kind", err)
		}
	})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			sc := *scenario.MustLookup("randtree")
			sc.CheckerPolicy = tc.scPolicy
			opts := tc.opts
			opts.Control = scenario.Debug
			cfg, err := sc.ControllerConfig(opts)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Policy.Kind != tc.wantKind {
				t.Errorf("kind = %q, want %q", cfg.Policy.Kind, tc.wantKind)
			}
			wantStates := tc.wantStates
			if wantStates == 0 {
				wantStates = 20000 // the controller default
			}
			if cfg.Policy.Base.States != wantStates {
				t.Errorf("states = %d, want %d", cfg.Policy.Base.States, wantStates)
			}
			if cfg.Policy.Base.Workers != tc.wantWorkers {
				t.Errorf("workers = %d, want %d", cfg.Policy.Base.Workers, tc.wantWorkers)
			}
		})
	}
}
