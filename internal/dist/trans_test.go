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
	cfg.Budget = mc.Budget{Depth: 4, Workers: 1}
	res, err := Local(LocalConfig{Shards: 2, Search: cfg, Root: g})
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
			for _, states := range []int{4, 7, 150} {
				cfg.Budget = mc.Budget{States: states, Workers: workers}
				res, err := Local(LocalConfig{Shards: shards, Search: cfg, Root: g})
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

// TestSplitBudgetNeverSharesZeroOfABound pins the fix for bounds smaller
// than the shard count: mc.Budget reads 0 as unbounded, so a zero share of
// a non-zero bound would let that shard run free. Such a budget yields
// fewer shares instead, and a 4-shard round on it stays inside the bound
// and says it stopped there.
func TestSplitBudgetNeverSharesZeroOfABound(t *testing.T) {
	for _, b := range []mc.Budget{{States: 2}, {States: 9}, {Depth: 3}} {
		shares := SplitBudget(b, 4)
		var states int
		for _, s := range shares {
			if b.States > 0 && s.States == 0 {
				t.Errorf("%+v: share %+v leaves a bounded dimension unbounded", b, s)
			}
			states += s.States
		}
		if states != b.States {
			t.Errorf("%+v: shares sum to states=%d", b, states)
		}
	}
	if n := len(SplitBudget(mc.Budget{Depth: 3}, 4)); n != 4 {
		t.Errorf("unbounded budget split into %d shares, want 4", n)
	}

	g, cfg := chordStart(t)
	cfg.Budget = mc.Budget{States: 2, Workers: 1}
	res, err := Local(LocalConfig{Shards: 4, Search: cfg, Root: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checker.StatesExplored > 2 || len(res.PerShard) != 2 {
		t.Errorf("4 shards, States=2: explored %d states on %d slots, want <= 2 on 2",
			res.Checker.StatesExplored, len(res.PerShard))
	}
	if res.Checker.StopReason != "states" {
		t.Errorf("4 shards, States=2: stop=%q, want states", res.Checker.StopReason)
	}
}
