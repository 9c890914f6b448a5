package scenario_test

import (
	"reflect"
	"sort"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sm"
)

// TestReductionOracleMatrix is the differential reduction oracle: for every
// registered scenario, buggy and fixed variants, the reduced exhaustive
// search must report the identical violation-signature set and reach the
// identical distinct local-state set as the unreduced search at equal
// depth, at every worker count. The sleep-set reduction's soundness
// argument is that it prunes only transitions into commuting-square
// duplicate states — so the oracle can pin the even stronger claim that
// the claimed global-state set (StatesExplored on a depth-bounded
// exhaustion) is untouched too, while the executed transition count drops.
func TestReductionOracleMatrix(t *testing.T) {
	depth := map[string]int{
		"randtree":    5,
		"chord":       5,
		"paxos":       4,
		"bulletprime": 5,
	}
	sigSet := func(r *mc.Result) map[string]bool {
		out := make(map[string]bool, len(r.Violations))
		for _, v := range r.Violations {
			out[v.Signature()] = true
		}
		return out
	}
	totalPruned := 0
	for _, name := range scenario.Names() {
		name := name
		d, ok := depth[name]
		if !ok {
			d = 4
		}
		for _, fixed := range []bool{false, true} {
			fixed := fixed
			label := name + "/buggy"
			if fixed {
				label = name + "/fixed"
			}
			t.Run(label, func(t *testing.T) {
				run := func(reduce bool, workers int) *mc.Result {
					g, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3, Fixed: fixed})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Mode = mc.Exhaustive
					cfg.Budget.Depth = d
					cfg.Budget.Workers = workers
					cfg.Seed = 42
					cfg.Reduce = reduce
					cfg.RecordLocalStates = true
					return mc.NewSearch(cfg).Run(g)
				}
				base := run(false, 1)
				for _, workers := range []int{1, 2, 4} {
					red := run(true, workers)
					if got, want := sigSet(red), sigSet(base); !reflect.DeepEqual(got, want) {
						t.Fatalf("workers=%d: violation signatures %v, unreduced %v", workers, got, want)
					}
					if !reflect.DeepEqual(red.LocalStates, base.LocalStates) {
						t.Fatalf("workers=%d: distinct local-state sets differ (%d reduced vs %d unreduced)",
							workers, len(red.LocalStates), len(base.LocalStates))
					}
					if red.StatesExplored != base.StatesExplored {
						t.Fatalf("workers=%d: %d states reduced vs %d unreduced",
							workers, red.StatesExplored, base.StatesExplored)
					}
					if red.Transitions+red.SleepHits != base.Transitions {
						t.Fatalf("workers=%d: transitions %d + sleep hits %d != unreduced %d",
							workers, red.Transitions, red.SleepHits, base.Transitions)
					}
					// Violations must agree state-by-state, not just by
					// signature: same depths, same violating states.
					if len(red.Violations) != len(base.Violations) {
						t.Fatalf("workers=%d: %d violations, unreduced %d",
							workers, len(red.Violations), len(base.Violations))
					}
					for i := range red.Violations {
						a, b := red.Violations[i], base.Violations[i]
						if a.StateHash != b.StateHash || a.Depth != b.Depth ||
							!reflect.DeepEqual(a.Properties, b.Properties) {
							t.Fatalf("workers=%d: violation %d differs: (%#x,%d,%v) vs (%#x,%d,%v)",
								workers, i, a.StateHash, a.Depth, a.Properties, b.StateHash, b.Depth, b.Properties)
						}
					}
					totalPruned += red.SleepHits
				}
			})
		}
	}
	if totalPruned == 0 {
		t.Fatalf("reduction never pruned a transition across the whole matrix")
	}
}

// TestReductionOracleConsequence extends the differential oracle to
// consequence-prediction mode, where the sleep-set reduction composes with
// the (node, local state) internal-action rule. That composition has a
// subtle soundness condition — H_A edges are pruned globally (once per
// claimed local state), so a sleep promise whose commuting square closes
// through an H_A edge could find the closure pruned at the sibling state;
// the engine therefore never lets promises ride on H_A expansions
// (Engine.expand). This oracle pins the result: identical claimed
// states, identical distinct local-state sets, identical violations, at
// every worker count.
func TestReductionOracleConsequence(t *testing.T) {
	depth := map[string]int{
		"randtree":    7,
		"chord":       8,
		"paxos":       6,
		"bulletprime": 7,
	}
	totalPruned := 0
	for _, name := range scenario.Names() {
		name := name
		d, ok := depth[name]
		if !ok {
			d = 6
		}
		t.Run(name, func(t *testing.T) {
			run := func(reduce bool, workers int) *mc.Result {
				g, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Mode = mc.Consequence
				cfg.Budget.Depth = d
				cfg.Budget.Workers = workers
				cfg.Seed = 42
				cfg.Reduce = reduce
				cfg.RecordLocalStates = true
				return mc.NewSearch(cfg).Run(g)
			}
			base := run(false, 1)
			for _, workers := range []int{1, 2, 4} {
				red := run(true, workers)
				if red.StatesExplored != base.StatesExplored {
					t.Fatalf("workers=%d: %d states reduced vs %d unreduced",
						workers, red.StatesExplored, base.StatesExplored)
				}
				if !reflect.DeepEqual(red.LocalStates, base.LocalStates) {
					t.Fatalf("workers=%d: distinct local-state sets differ (%d reduced vs %d unreduced)",
						workers, len(red.LocalStates), len(base.LocalStates))
				}
				if red.Transitions > base.Transitions {
					t.Fatalf("workers=%d: reduced search took MORE transitions (%d vs %d)",
						workers, red.Transitions, base.Transitions)
				}
				if len(red.Violations) != len(base.Violations) {
					t.Fatalf("workers=%d: %d violations, unreduced %d",
						workers, len(red.Violations), len(base.Violations))
				}
				for i := range red.Violations {
					a, b := red.Violations[i], base.Violations[i]
					if a.StateHash != b.StateHash || a.Depth != b.Depth ||
						!reflect.DeepEqual(a.Properties, b.Properties) {
						t.Fatalf("workers=%d: violation %d differs", workers, i)
					}
				}
				totalPruned += red.SleepHits
			}
		})
	}
	if totalPruned == 0 {
		t.Fatalf("reduction never pruned a transition across the consequence matrix")
	}
}

// TestReductionOracleWarmConsequence runs the consequence-mode oracle from
// a warmed chord state — nodes joined and some join traffic delivered, the
// state shape live controllers actually predict from. Cold chord
// consequence is degenerate (a handful of enabled internal actions), so this
// is the configuration where the H_A promise restriction earns its keep.
func TestReductionOracleWarmConsequence(t *testing.T) {
	g, cfg, err := scenario.InitialState("chord", scenario.Options{Nodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = mc.Consequence
	cfg.Budget.Depth = 10
	cfg.Seed = 7
	cfg.RecordLocalStates = true
	s := mc.NewSearch(cfg)
	// Deterministic warm prefix: each node's first app call in node
	// order, then four first-enabled network deliveries.
	_, internal := s.EnabledEvents(g)
	ids := make([]int, 0, len(internal))
	for id := range internal {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, ev := range internal[sm.NodeID(id)] {
			if ev.Kind != 'A' {
				continue
			}
			if next := s.ApplyEvent(g, ev); next != nil {
				g = next
			}
			break
		}
	}
	for i := 0; i < 4; i++ {
		net, _ := s.EnabledEvents(g)
		if len(net) == 0 {
			break
		}
		if next := s.ApplyEvent(g, net[0]); next != nil {
			g = next
		}
	}
	run := func(reduce bool, workers int) *mc.Result {
		c := cfg
		c.Reduce = reduce
		c.Budget.Workers = workers
		return mc.NewSearch(c).Run(g)
	}
	base := run(false, 1)
	redTransitions := 0
	for _, workers := range []int{1, 4} {
		red := run(true, workers)
		if red.StatesExplored != base.StatesExplored {
			t.Fatalf("workers=%d: %d states reduced vs %d unreduced",
				workers, red.StatesExplored, base.StatesExplored)
		}
		if !reflect.DeepEqual(red.LocalStates, base.LocalStates) {
			t.Fatalf("workers=%d: local-state sets differ", workers)
		}
		if red.SleepHits == 0 {
			t.Fatalf("workers=%d: warm chord consequence pruned nothing", workers)
		}
		redTransitions = red.Transitions
	}
	t.Logf("warm chord consequence: %d states, transitions %d -> %d (%.2fx)",
		base.StatesExplored, base.Transitions, redTransitions,
		float64(base.Transitions)/float64(redTransitions))
}

// TestReductionOracleDeep re-runs the differential oracle one to two
// levels deeper on the two densest scenarios (chord, paxos), where the commuting-delivery diamonds are dense enough
// for reduction to prune a large transition share. Skipped under -short.
func TestReductionOracleDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep oracle skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		depth int
	}{
		{"chord", 7},
		{"paxos", 6},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(reduce bool) *mc.Result {
				g, cfg, err := scenario.InitialState(tc.name, scenario.Options{Nodes: 3})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Mode = mc.Exhaustive
				cfg.Budget.Depth = tc.depth
				cfg.Budget.Workers = 4
				cfg.Seed = 7
				cfg.Reduce = reduce
				cfg.RecordLocalStates = true
				return mc.NewSearch(cfg).Run(g)
			}
			base, red := run(false), run(true)
			if red.StatesExplored != base.StatesExplored {
				t.Fatalf("states %d reduced vs %d unreduced", red.StatesExplored, base.StatesExplored)
			}
			if !reflect.DeepEqual(red.LocalStates, base.LocalStates) {
				t.Fatalf("distinct local-state sets differ")
			}
			if red.Transitions+red.SleepHits != base.Transitions {
				t.Fatalf("transition accounting: %d + %d != %d", red.Transitions, red.SleepHits, base.Transitions)
			}
			if red.SleepHits == 0 {
				t.Fatalf("no pruning at depth %d", tc.depth)
			}
			t.Logf("depth %d: %d states, transitions %d -> %d (%.1f%% pruned)",
				tc.depth, base.StatesExplored, base.Transitions, red.Transitions,
				100*float64(red.SleepHits)/float64(base.Transitions))
		})
	}
}
