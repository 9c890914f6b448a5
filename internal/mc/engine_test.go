package mc

import (
	"reflect"
	"testing"

	"crystalball/internal/sm"
)

// TestMinDepthClaimRule drives the engine's claim rule directly, the way a
// sharded search does when states arrive out of depth order: a state first
// claimed too deep is cut off early by the depth bound; re-arriving at the
// same depth or deeper it is a duplicate; re-arriving strictly shallower it
// is re-claimed and its subtree re-expanded; and once the root is in, the
// claimed set is exactly the depth-bounded BFS set.
func TestMinDepthClaimRule(t *testing.T) {
	cfg := Config{
		Props:               poisonAt(1000),
		Factory:             newToy,
		Mode:                Exhaustive,
		ExploreResets:       true,
		RecordClaimedStates: true,
		Budget:              Budget{Depth: 6, Workers: 1},
	}
	root := twoNodeStart()
	want := NewSearch(cfg).Run(root)

	s := NewSearch(cfg)
	// S sits two events below the root.
	S := root
	for step := 0; step < 2; step++ {
		var next *GState
		s.NewExpander().Events(S, func(ev sm.Event) {
			if next == nil {
				next = s.ApplyEvent(S, ev)
			}
		})
		if next == nil {
			t.Fatal("no applicable event on the way to S")
		}
		S = next
	}
	h := S.Hash()

	e := s.NewEngine(s.Config().Budget, HashRange{}, nil)
	drain := func() {
		t.Helper()
		if err := e.Drain(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, claimed := e.Inject(Forward{State: S, Depth: 4}); !claimed {
		t.Fatal("first arrival of S not claimed")
	}
	drain()
	deep := e.Result()
	if !e.Seen(h, 4) || !e.Seen(h, 5) || e.Seen(h, 3) {
		t.Fatalf("Seen after a depth-4 claim: d4=%v d5=%v d3=%v, want true true false",
			e.Seen(h, 4), e.Seen(h, 5), e.Seen(h, 3))
	}

	for _, d := range []int{4, 5} {
		if _, claimed := e.Inject(Forward{State: S, Depth: d}); claimed {
			t.Fatalf("S re-arriving at depth %d was claimed again", d)
		}
	}
	drain()
	if got := e.Result(); got.StatesExplored != deep.StatesExplored || e.Claimed() != len(deep.ClaimedStates) {
		t.Fatalf("duplicate arrivals did work: %d expansions / %d claims, had %d / %d",
			got.StatesExplored, e.Claimed(), deep.StatesExplored, len(deep.ClaimedStates))
	}

	if _, claimed := e.Inject(Forward{State: S, Depth: 2}); !claimed {
		t.Fatal("S re-arriving two levels shallower was not re-claimed")
	}
	drain()
	shallow := e.Result()
	if shallow.StatesExplored <= deep.StatesExplored {
		t.Fatalf("re-claimed S was not re-expanded: %d expansions, had %d", shallow.StatesExplored, deep.StatesExplored)
	}
	if len(shallow.ClaimedStates) <= len(deep.ClaimedStates) {
		t.Fatalf("re-expansion reached no new state below S: %d claims, had %d",
			len(shallow.ClaimedStates), len(deep.ClaimedStates))
	}

	e.Inject(Forward{State: root})
	drain()
	if got := e.ClaimedStates(); !reflect.DeepEqual(got, want.ClaimedStates) {
		t.Fatalf("claimed set is not the depth-bounded BFS set: %d states, BFS has %d", len(got), len(want.ClaimedStates))
	}
}
