package scenario_test

import (
	"testing"
	"time"

	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// raceDetector is set by race_test.go in builds with the race detector.
var raceDetector bool

// TestSteeringDoesNoHarm is a differential oracle in the style of MET (Zhang
// et al.): the bare deployment at the same seed is the reference, and
// execution steering may not leave the running system worse than it. The
// ground-truth recorder judges both runs by the scenario's own properties
// after every executed handler. A steered run fails if it spends a larger
// share of its events inconsistent than the bare run, or if a property
// fails in it that never fails bare.
func TestSteeringDoesNoHarm(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("ten live runs per scenario: ≈ 20 s, and fifteen times that under the race detector; CI runs it without")
	}
	cases := []struct {
		name  string
		nodes int
		run   time.Duration
		churn time.Duration
		gated bool
	}{
		// ROADMAP item 14: steering chord filters the stabilize timer that
		// repairs the transient violations churn causes, and the steered
		// run is worse than bare on most seeds. Chord's rows are printed,
		// not gated, until steering acts only on violations the system
		// will not repair itself.
		{name: "chord", nodes: 20, run: 60 * time.Minute, churn: 30 * time.Second},
		{name: "randtree", nodes: 12, run: 10 * time.Minute, churn: time.Minute, gated: true},
		{name: "bulletprime", nodes: 12, run: 10 * time.Minute, churn: time.Minute, gated: true},
	}
	for _, c := range cases {
		for seed := int64(41); seed <= 45; seed++ {
			truth := func(control scenario.Control) *scenario.GroundTruth {
				d, err := scenario.Deploy(c.name, scenario.DeployOptions{
					Seed:     seed,
					Service:  scenario.Options{Nodes: c.nodes},
					Control:  control,
					MCStates: 10000,
					Workers:  1,
				})
				if err != nil {
					t.Fatal(err)
				}
				g := d.RecordGroundTruth()
				d.StartWorkload()
				d.StartChurn(c.churn)
				d.Sim.RunFor(c.run)
				return g
			}
			bare, steered := truth(scenario.Bare), truth(scenario.Steering)
			t.Logf("%s seed %d\n  bare    %v\n  steered %v", c.name, seed, bare, steered)
			if !c.gated {
				continue
			}
			if steered.Share() > bare.Share() {
				t.Errorf("%s seed %d: steered run inconsistent after %.1f%% of its events, bare after %.1f%%",
					c.name, seed, 100*steered.Share(), 100*bare.Share())
			}
			for i, n := range steered.Failed {
				if n > 0 && bare.Failed[i] == 0 {
					t.Errorf("%s seed %d: %s fails after %d steered events and never bare",
						c.name, seed, scenario.MustLookup(c.name).Props[i].Name, n)
				}
			}
		}
	}
}
