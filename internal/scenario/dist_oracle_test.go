package scenario_test

import (
	"reflect"
	"sort"
	"testing"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// distVio is the deterministic core of a distributed violation report:
// representative paths are scheduling telemetry and excluded.
type distVio struct {
	props string
	depth int
	hash  uint64
}

func distVios(vs []mc.Violation) []distVio {
	out := make([]distVio, len(vs))
	for i, v := range vs {
		sig := ""
		for _, p := range v.Properties {
			sig += p + "|"
		}
		out[i] = distVio{props: sig, depth: v.Depth, hash: v.StateHash}
	}
	return out
}

// violatedNames reduces violations to the sorted set of distinct property
// names — the granularity at which serial (onset semantics) and
// distributed (full violated-set semantics) reports are comparable.
func violatedNames(vs []mc.Violation) []string {
	seen := map[string]bool{}
	for _, v := range vs {
		for _, p := range v.Properties {
			seen[p] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TestDistOracleMatrix is the distributed-search differential oracle: for
// every registered scenario, a depth-bounded distributed exhaustive round
// must claim the *identical* state set as the single-process engine — at
// shards 1, 2 and 4, and at any per-shard worker count — along with the
// identical state count, distinct local-state set and stop reason
// (frontier-empty, as the serial run's). The distributed violation reports
// (full violated-set semantics, see internal/dist) are additionally pinned
// to be identical across every shard/worker combination, since they are a
// pure function of the claimed set.
func TestDistOracleMatrix(t *testing.T) {
	depth := map[string]int{
		"randtree":    5,
		"chord":       5,
		"paxos":       4,
		"bulletprime": 5,
		// Depth 6 is where the seeded CRDT divergences first appear, so
		// the violation-equality half of the oracle is exercised (the
		// ReplicaConvergence property is global — evaluated per shard
		// as a pure function of the expanded state).
		"gcounter": 6,
		"orset":    6,
		"lwwmap":   6,
	}
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
			cfg.Budget = mc.Budget{Depth: d, Workers: 2}
			cfg.RecordLocalStates = true
			cfg.RecordClaimedStates = true
			serial := mc.NewSearch(cfg).Run(g)
			if serial.StatesExplored == 0 {
				t.Fatalf("serial search explored no states")
			}
			if serial.StopReason != mc.FrontierEmpty {
				t.Fatalf("depth-bounded serial search stopped on %q", serial.StopReason)
			}

			var ref *mc.Result
			for _, shards := range []int{1, 2, 4} {
				for _, workers := range []int{1, 2} {
					search := cfg
					search.Budget.Workers = workers
					res, err := dist.Local(dist.LocalConfig{
						Shards:       shards,
						Search:       search,
						Root:         g,
						RecordStates: true,
					})
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
					}
					got := &res.Checker
					if !reflect.DeepEqual(got.ClaimedStates, serial.ClaimedStates) {
						t.Errorf("shards=%d workers=%d: claimed-state set diverges from serial engine (%d vs %d states)",
							shards, workers, len(got.ClaimedStates), len(serial.ClaimedStates))
					}
					if got.StatesExplored != serial.StatesExplored {
						t.Errorf("shards=%d workers=%d: StatesExplored=%d, serial %d",
							shards, workers, got.StatesExplored, serial.StatesExplored)
					}
					if got.StopReason != serial.StopReason {
						t.Errorf("shards=%d workers=%d: stop=%s, serial %s",
							shards, workers, got.StopReason, serial.StopReason)
					}
					if got.MaxDepthReached != serial.MaxDepthReached {
						t.Errorf("shards=%d workers=%d: MaxDepthReached=%d, serial %d",
							shards, workers, got.MaxDepthReached, serial.MaxDepthReached)
					}
					if got.DistinctLocalStates != serial.DistinctLocalStates {
						t.Errorf("shards=%d workers=%d: DistinctLocalStates=%d, serial %d",
							shards, workers, got.DistinctLocalStates, serial.DistinctLocalStates)
					}
					if !reflect.DeepEqual(violatedNames(got.Violations), violatedNames(serial.Violations)) {
						t.Errorf("shards=%d workers=%d: violated properties %v, serial %v",
							shards, workers, violatedNames(got.Violations), violatedNames(serial.Violations))
					}
					if ref == nil {
						ref = got
						continue
					}
					if !reflect.DeepEqual(distVios(got.Violations), distVios(ref.Violations)) {
						t.Errorf("shards=%d workers=%d: violation set diverges across shard counts", shards, workers)
					}
				}
			}
		})
	}
}

// TestDistDeterminism pins same-seed reproducibility: two identical
// distributed runs report identical claimed sets, counts and violations.
func TestDistDeterminism(t *testing.T) {
	g, cfg, err := scenario.InitialState("chord", scenario.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = mc.Exhaustive
	cfg.Seed = 7
	cfg.Budget = mc.Budget{Depth: 5, Workers: 2}
	run := func() *mc.Result {
		res, err := dist.Local(dist.LocalConfig{
			Shards:       3,
			Search:       cfg,
			Root:         g,
			RecordStates: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &res.Checker
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.ClaimedStates, b.ClaimedStates) {
		t.Errorf("claimed-state sets differ between identical runs")
	}
	if a.StatesExplored != b.StatesExplored || a.MaxDepthReached != b.MaxDepthReached ||
		a.DistinctLocalStates != b.DistinctLocalStates {
		t.Errorf("counts differ between identical runs: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(distVios(a.Violations), distVios(b.Violations)) {
		t.Errorf("violation sets differ between identical runs")
	}
}

// TestViolationPathsReachReportedState: an expanded node keeps its
// fingerprint but not its state, so a violation report is (event path,
// state hash) and nothing else — and the two must agree. For the scenarios
// whose seeded bugs surface within the bound, every reported path, applied
// event by event from the start state, reaches a state with the reported
// hash, in the serial engine and across two shards (where paths cross
// shard goroutines as forwarded nodes).
func TestViolationPathsReachReportedState(t *testing.T) {
	for _, name := range []string{"gcounter", "orset", "lwwmap"} {
		g, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mode = mc.Exhaustive
		cfg.Seed = 42
		cfg.Budget = mc.Budget{Depth: 6, Workers: 2}
		sharded, err := dist.Local(dist.LocalConfig{Shards: 2, Search: cfg, Root: g})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := mc.NewSearch(cfg)
		for run, res := range map[string]*mc.Result{"serial": s.Run(g), "shards=2": &sharded.Checker} {
			if len(res.Violations) == 0 {
				t.Fatalf("%s %s: no violation within depth 6", name, run)
			}
			for _, v := range res.Violations {
				at := g
				for i, ev := range v.Path {
					if at = s.ApplyEvent(at, ev); at == nil {
						t.Fatalf("%s %s: path step %d (%s) not applicable", name, run, i, ev.Describe())
					}
				}
				if at.Hash() != v.StateHash || len(v.Path) != v.Depth {
					t.Errorf("%s %s: %d-event path reaches %#x, violation reports %#x at depth %d",
						name, run, len(v.Path), at.Hash(), v.StateHash, v.Depth)
				}
			}
		}
	}
}
