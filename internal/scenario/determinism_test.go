package scenario_test

import (
	"reflect"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sm"
)

// TestWorkerCountDeterminismMatrix extends the checker's same-seed
// determinism guarantee across every registered scenario and both
// partial-order-reduction settings: a depth-bounded search (no state or
// violation cutoff, so the reachable set is interleaving-independent) must
// admit the same states, take the same transitions and report the same
// violations at any worker count, with reduction on and off. The
// chord/paxos-only versions of this check live in internal/mc; this matrix
// covers randtree and bulletprime too, and every future registration
// automatically.
func TestWorkerCountDeterminismMatrix(t *testing.T) {
	// Depth bounds per scenario, deep enough to include fault
	// transitions and at least one seeded-bug violation where one is
	// reachable, shallow enough to exhaust.
	depth := map[string]int{
		"randtree":    5,
		"chord":       5,
		"paxos":       4,
		"bulletprime": 5,
	}
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, ok := depth[name]
			if !ok {
				d = 4 // future scenarios get a conservative bound
			}
			run := func(workers int, reduce bool) *mc.Result {
				g, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Mode = mc.Exhaustive
				cfg.Budget.Depth = d
				cfg.Budget.Workers = workers
				cfg.Seed = 42
				cfg.Reduce = reduce
				return mc.NewSearch(cfg).Run(g)
			}
			for _, reduce := range []bool{false, true} {
				serial := run(1, reduce)
				for _, workers := range []int{2, 4} {
					par := run(workers, reduce)
					if par.StatesExplored != serial.StatesExplored || par.Transitions != serial.Transitions {
						t.Fatalf("reduce=%v workers=%d: states/transitions %d/%d, serial %d/%d",
							reduce, workers, par.StatesExplored, par.Transitions,
							serial.StatesExplored, serial.Transitions)
					}
					if len(par.Violations) != len(serial.Violations) {
						t.Fatalf("reduce=%v workers=%d: %d violations, serial %d",
							reduce, workers, len(par.Violations), len(serial.Violations))
					}
					for i := range par.Violations {
						a, b := par.Violations[i], serial.Violations[i]
						if a.StateHash != b.StateHash || a.Depth != b.Depth {
							t.Fatalf("reduce=%v workers=%d: violation %d (hash %#x depth %d), serial (hash %#x depth %d)",
								reduce, workers, i, a.StateHash, a.Depth, b.StateHash, b.Depth)
						}
						if !reflect.DeepEqual(a.Properties, b.Properties) {
							t.Fatalf("reduce=%v workers=%d: violation %d properties %v, serial %v",
								reduce, workers, i, a.Properties, b.Properties)
						}
					}
				}
			}
		})
	}
}

// TestSameSeedDeploymentDeterminism: two deployments with identical options
// evolve identically — same per-node action counts and the same global
// fingerprint of every node's state encoding.
func TestSameSeedDeploymentDeterminism(t *testing.T) {
	run := func() []int64 {
		d, err := scenario.Deploy("randtree", scenario.DeployOptions{
			Seed:     9,
			Service:  scenario.Options{Nodes: 6},
			Control:  scenario.Debug,
			MCStates: 500,
			Workers:  1,
			Workload: true,
			Churn:    20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Sim.RunFor(90 * time.Second)
		var out []int64
		for _, node := range d.Nodes {
			out = append(out, node.Stats.ActionsExecuted)
			e := sm.NewEncoder()
			svc, _ := node.View()
			svc.EncodeState(e)
			out = append(out, int64(e.Hash()))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed deployments diverged:\n%v\nvs\n%v", a, b)
	}
}
