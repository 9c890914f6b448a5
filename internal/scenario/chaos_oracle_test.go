package scenario_test

import (
	"reflect"
	"testing"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// chaosFaults are the injected failures the chaos oracle drives through
// every registered scenario. Each is scheduled by (round, message count)
// from the deterministic fault plane, so the whole recovery — which shard
// dies, when, and what the retry runs on — replays identically per seed.
//
//   - kill:    shard 1's connection is cut at its 2nd message of round 1
//     (mid-round crash of a worker).
//   - sever:   the link is cut at the 1st message relayed *to* shard 1
//     (network partition on the coordinator→shard path).
//   - corrupt: shard 1's first batch is mangled in flight; the receiving
//     shard's validation faults it out of the session (the Fault-message
//     death path, not silent divergence).
var chaosFaults = []struct{ name, spec string }{
	{"kill", "kill@s1r1m2"},
	{"sever", "send:sever@s1r1m1"},
	{"corrupt", "corrupt@s1r1m1"},
}

// TestChaosOracleMatrix is the fault-tolerance differential oracle: for
// every registered scenario, a distributed round with a shard killed,
// severed, or corrupted mid-round must still claim the *identical* state
// set as the single-process engine — at shards 2 and 4 — with at least one
// retry actually exercised, and the violation set identical to a fault-free
// distributed round's. Recovery telemetry must be byte-identical across two
// runs of the same seed (the determinism half of the tentpole's acceptance
// criteria).
func TestChaosOracleMatrix(t *testing.T) {
	depth := map[string]int{
		"randtree":    5,
		"chord":       5,
		"paxos":       4,
		"bulletprime": 5,
		// Depth 6 reaches the seeded CRDT divergences, so recovery is
		// pinned to reproduce actual global-property violations, not
		// just the claimed set.
		"gcounter": 6,
		"orset":    6,
		"lwwmap":   6,
	}
	for _, f := range chaosFaults {
		f := f
		t.Run(f.name, func(t *testing.T) {
			for _, name := range scenario.Names() {
				name := name
				d, ok := depth[name]
				if !ok {
					d = 4
				}
				t.Run(name, func(t *testing.T) {
					g, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Mode = mc.Exhaustive
					cfg.Seed = 42
					cfg.Budget = mc.Budget{Depth: d, Workers: 1}
					cfg.RecordLocalStates = true
					cfg.RecordClaimedStates = true
					serial := mc.NewSearch(cfg).Run(g)
					if serial.StatesExplored == 0 {
						t.Fatalf("serial search explored no states")
					}

					for _, shards := range []int{2, 4} {
						run := func() *dist.Result {
							plan, err := dist.ParseFaultPlan(f.spec)
							if err != nil {
								t.Fatal(err)
							}
							res, err := dist.Local(dist.LocalConfig{
								Shards:       shards,
								Search:       cfg,
								Root:         g,
								RecordStates: true,
								Faults:       plan,
							})
							if err != nil {
								t.Fatalf("shards=%d: %v", shards, err)
							}
							return res
						}
						clean, err := dist.Local(dist.LocalConfig{
							Shards: shards, Search: cfg, Root: g, RecordStates: true,
						})
						if err != nil {
							t.Fatalf("fault-free reference at shards=%d: %v", shards, err)
						}

						res := run()
						if res.Recovery.Retries < 1 {
							t.Errorf("shards=%d: fault %q caused no retry (recovery %q)",
								shards, f.spec, res.Recovery.String())
						}
						got := &res.Checker
						if !reflect.DeepEqual(got.ClaimedStates, serial.ClaimedStates) {
							t.Errorf("shards=%d: recovered claimed-state set diverges from serial engine (%d vs %d states)",
								shards, len(got.ClaimedStates), len(serial.ClaimedStates))
						}
						if got.StatesExplored != serial.StatesExplored {
							t.Errorf("shards=%d: StatesExplored=%d, serial %d",
								shards, got.StatesExplored, serial.StatesExplored)
						}
						if got.DistinctLocalStates != serial.DistinctLocalStates {
							t.Errorf("shards=%d: DistinctLocalStates=%d, serial %d",
								shards, got.DistinctLocalStates, serial.DistinctLocalStates)
						}
						if !reflect.DeepEqual(distVios(got.Violations), distVios(clean.Checker.Violations)) {
							t.Errorf("shards=%d: violation set diverges from the fault-free round", shards)
						}

						again := run()
						if a, b := res.Recovery.String(), again.Recovery.String(); a != b {
							t.Errorf("shards=%d: recovery telemetry not deterministic:\n%s\n%s", shards, a, b)
						}
						if !reflect.DeepEqual(got.ClaimedStates, again.Checker.ClaimedStates) {
							t.Errorf("shards=%d: claimed sets differ between identical fault runs", shards)
						}
					}
				})
			}
		})
	}
}
