package dist

import (
	"testing"

	"crystalball/internal/mc"
)

// TestUnbudgetedCountersTick pins that the expansion and transition
// counters tick even when the budget leaves them unlimited (a
// short-circuit around the atomic add once silently zeroed both).
func TestUnbudgetedCountersTick(t *testing.T) {
	g, cfg := chordStart(t)
	res, err := Local(LocalConfig{
		Shards: 2,
		Search: cfg,
		Root:   g,
		Budget: mc.Budget{Depth: 4, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checker.Transitions == 0 {
		t.Errorf("merged transition count is zero")
	}
	for _, r := range res.PerShard {
		if r.States > 0 && r.Expansions == 0 {
			t.Errorf("shard %d claimed %d states but reports zero expansions", r.Shard, r.States)
		}
	}
}

// TestShardedStatesWithinBudget pins that a state-budgeted sharded round
// never reports more explored states than it was given: every shard's
// engine admits expansions against its exact share of Budget.States
// (rejected admissions are rolled back, at any worker count), and the
// merged count takes no credit for states that were claimed but never
// expanded.
func TestShardedStatesWithinBudget(t *testing.T) {
	g, cfg := chordStart(t)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			for _, states := range []int{4, 7, 150} { // >= shards: a zero share would mean "unbounded"
				b := mc.Budget{States: states, Workers: workers}
				res, err := Local(LocalConfig{Shards: shards, Search: cfg, Root: g, Budget: b})
				if err != nil {
					t.Fatal(err)
				}
				var expansions int64
				for _, r := range res.PerShard {
					expansions += r.Expansions
				}
				if res.Checker.StatesExplored > states || expansions > int64(states) {
					t.Errorf("shards=%d workers=%d: explored %d states (%d expansions) on a budget of %d",
						shards, workers, res.Checker.StatesExplored, expansions, states)
				}
				if res.Checker.StatesExplored == 0 {
					t.Errorf("shards=%d workers=%d budget=%d: nothing explored", shards, workers, states)
				}
			}
		}
	}
}
