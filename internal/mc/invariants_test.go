package mc

import (
	"testing"
	"testing/quick"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// These tests check cross-algorithm invariants of the model checker that
// the paper's soundness argument relies on.

// TestConsequenceViolationsAreRealExecutions: every violation path that
// consequence prediction reports must replay to the same violation — the
// paper's claim that "bugs identified by consequence search are guaranteed
// to be real with respect to the model explored" (unlike over-approximating
// analyses).
func TestConsequenceViolationsAreRealExecutions(t *testing.T) {
	cfg := Config{
		Props:         poisonAt(3),
		Factory:       newToy,
		Mode:          Consequence,
		Budget:        Budget{States: 5000},
		ExploreResets: true,
	}
	res := NewSearch(cfg).Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("setup: no violations")
	}
	for i, v := range res.Violations {
		if got := NewSearch(cfg).Replay(twoNodeStart(), v.Path); len(got) == 0 {
			t.Fatalf("violation %d does not replay: %v", i, describePath(v.Path))
		}
	}
}

// TestConsequenceSubsetOfExhaustive: with faults disabled and identical
// bounds, every state hash consequence prediction dequeues is also visited
// by exhaustive search from the same start — pruning removes transitions,
// it never invents them.
func TestConsequenceSubsetOfExhaustive(t *testing.T) {
	// Instrumentation trick: run both searches with a property that
	// records hashes as it checks (properties see every dequeued state).
	collect := func(mode Mode) map[uint64]bool {
		seen := make(map[uint64]bool)
		rec := props.Set{{
			Name: "recorder",
			Check: func(v *props.View) bool {
				h := hashView(v)
				seen[h] = true
				return true
			},
		}}
		s := NewSearch(Config{
			Props:   rec,
			Factory: newToy,
			Mode:    mode,
			Budget:  Budget{States: 100000, Depth: 5, Workers: 1},
			// The recorder property writes a plain map, so this test
			// must run on the serial engine.
		})
		s.Run(twoNodeStart())
		return seen
	}
	ex := collect(Exhaustive)
	cp := collect(Consequence)
	if len(cp) > len(ex) {
		t.Fatalf("consequence saw more states (%d) than exhaustive (%d)", len(cp), len(ex))
	}
	for h := range cp {
		if !ex[h] {
			t.Fatal("consequence visited a state exhaustive never reached")
		}
	}
}

// hashView summarises a property view for the subset test.
func hashView(v *props.View) uint64 {
	e := sm.NewEncoder()
	for _, id := range v.IDs() {
		e.NodeID(id)
		v.Get(id).Svc.EncodeState(e)
	}
	return e.Hash()
}

// TestPropertySearchDeterminism: identical configs explore identical state
// counts and find identical violations, across seeds and modes.
func TestPropertySearchDeterminism(t *testing.T) {
	f := func(seed int64, modePick, limit uint8) bool {
		mode := Exhaustive
		if modePick%2 == 1 {
			mode = Consequence
		}
		cfg := Config{
			Props:   poisonAt(int(limit%4) + 2),
			Factory: newToy,
			Mode:    mode,
			// Workers pinned: exact run-to-run equality under a state
			// cutoff holds only serially (see parallel_test.go for the
			// parallel determinism guarantees).
			Budget: Budget{States: 600, Workers: 1},
			Seed:   seed,
		}
		a := NewSearch(cfg).Run(twoNodeStart())
		b := NewSearch(cfg).Run(twoNodeStart())
		if a.StatesExplored != b.StatesExplored || len(a.Violations) != len(b.Violations) {
			return false
		}
		for i := range a.Violations {
			if a.Violations[i].StateHash != b.Violations[i].StateHash {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyViolationDepthMatchesPathLength: a reported violation's depth
// always equals its path length (the path is a complete execution from the
// start state).
func TestPropertyViolationDepthMatchesPathLength(t *testing.T) {
	f := func(limit uint8) bool {
		cfg := Config{
			Props:   poisonAt(int(limit%5) + 1),
			Factory: newToy,
			Mode:    Consequence,
			Budget:  Budget{States: 2000},
		}
		res := NewSearch(cfg).Run(twoNodeStart())
		for _, v := range res.Violations {
			if v.Depth != len(v.Path) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestFilteredSearchNeverExpandsFilteredEvent: with a filter installed, no
// violation path may contain the filtered delivery.
func TestFilteredSearchNeverExpandsFilteredEvent(t *testing.T) {
	filter := sm.Filter{Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Ping"}}
	cfg := Config{
		Props:   poisonAt(2),
		Factory: newToy,
		Mode:    Consequence,
		Budget:  Budget{States: 20000},
		Filters: []sm.Filter{filter},
	}
	res := NewSearch(cfg).Run(twoNodeStart())
	for _, v := range res.Violations {
		for _, ev := range v.Path {
			if filter.Matches(ev) {
				t.Fatalf("filtered event executed in path: %v", describePath(v.Path))
			}
		}
	}
}
