package mc

import (
	"reflect"
	"sort"
	"testing"

	"crystalball/internal/sm"
)

// distinctSignatures returns the sorted violation-signature set of a result
// (Result.Violations is already deduplicated by signature). The Chord and
// Paxos determinism twins of these tests live in services_test.go (package
// mc_test): real services register scenarios, whose package imports mc.
func distinctSignatures(res *Result) []string {
	out := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		out = append(out, v.Signature())
	}
	sort.Strings(out)
	return out
}

// TestParallelMatchesSerialToy: a depth-bounded exploration (no state or
// violation cutoff, so the reachable set is interleaving-independent) must
// report the same state count and the same distinct violation signatures at
// any worker count, for both breadth-first strategies.
func TestParallelMatchesSerialToy(t *testing.T) {
	for _, mode := range []Mode{Exhaustive, Consequence} {
		run := func(workers int) *Result {
			s := NewSearch(Config{
				Props:         poisonAt(3),
				Factory:       newToy,
				Mode:          mode,
				Budget:        Budget{Depth: 6, Workers: workers},
				ExploreResets: true,
			})
			return s.Run(twoNodeStart())
		}
		serial := run(1)
		if len(serial.Violations) == 0 {
			t.Fatalf("%v: setup found no violations", mode)
		}
		for _, workers := range []int{2, 4, 8} {
			par := run(workers)
			if par.StatesExplored != serial.StatesExplored {
				t.Errorf("%v workers=%d: states %d, serial %d",
					mode, workers, par.StatesExplored, serial.StatesExplored)
			}
			if got, want := distinctSignatures(par), distinctSignatures(serial); !reflect.DeepEqual(got, want) {
				t.Errorf("%v workers=%d: signatures %v, serial %v", mode, workers, got, want)
			}
		}
	}
}

// TestParallelViolationsSortedDeterministically: the deduplicated violation
// list is ordered by (depth, hash) regardless of discovery order.
func TestParallelViolationsSortedDeterministically(t *testing.T) {
	s := NewSearch(Config{
		Props:         poisonAt(2),
		Factory:       newToy,
		Mode:          Exhaustive,
		Budget:        Budget{Depth: 6, Workers: 4},
		ExploreResets: true,
	})
	res := s.Run(twoNodeStart())
	for i := 1; i < len(res.Violations); i++ {
		a, b := res.Violations[i-1], res.Violations[i]
		if a.Depth > b.Depth || (a.Depth == b.Depth && a.StateHash > b.StateHash) {
			t.Fatalf("violations not sorted at %d: (%d,%d) then (%d,%d)",
				i, a.Depth, a.StateHash, b.Depth, b.StateHash)
		}
	}
}

// --- Replay and filter-application coverage ---------------------------------

// TestReplayStopsAtFirstViolation: Replay returns the violated properties
// of the earliest violating state along the path, not the path's end.
func TestReplayStopsAtFirstViolation(t *testing.T) {
	cfg := Config{Props: poisonAt(3), Factory: newToy, Mode: Consequence, Budget: Budget{States: 10000}}
	res := NewSearch(cfg).Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("setup: no violation")
	}
	// Extending a violating path with junk events must not hide the
	// violation: replay stops at the first violating state.
	path := append(append([]sm.Event{}, res.Violations[0].Path...),
		sm.TimerFiring(1, "nonexistent"))
	if got := NewSearch(cfg).Replay(twoNodeStart(), path); len(got) == 0 {
		t.Fatal("replay missed the violation on the extended path")
	}
}

// TestReplayViolatingStartState: a start state that already violates
// reports immediately, with an empty remaining path.
func TestReplayViolatingStartState(t *testing.T) {
	g := NewGState()
	a := newToy(1).(*toy)
	a.counter = 99
	g.AddNode(1, a, nil)
	cfg := Config{Props: poisonAt(3), Factory: newToy}
	if got := NewSearch(cfg).Replay(g, nil); len(got) == 0 {
		t.Fatal("replay ignored a violating start state")
	}
}

// TestReplayHonorsFilters: replaying a path whose first event is filtered
// follows the corrective action (drop), so the downstream violation
// becomes unreachable.
func TestReplayHonorsFilters(t *testing.T) {
	cfg := Config{Props: poisonAt(3), Factory: newToy, Mode: Consequence, Budget: Budget{States: 10000}}
	res := NewSearch(cfg).Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("setup: no violation")
	}
	path := res.Violations[0].Path
	var filter sm.Filter
	found := false
	for _, ev := range path {
		if f, ok := sm.FilterForEvent(ev); ok {
			filter, found = f, true
			break
		}
	}
	if !found {
		t.Fatalf("no filterable event in path %v", describePath(path))
	}
	cfg.Filters = []sm.Filter{filter}
	if got := NewSearch(cfg).Replay(twoNodeStart(), path); got != nil {
		t.Fatalf("filtered replay still violated %v", got)
	}
}

// TestFilterForPrecedence: the first installed filter matching an event
// wins — here the one that drops the message without breaking the
// connection, so no RST is queued — and a filter blocks no other event.
func TestFilterForPrecedence(t *testing.T) {
	f1 := sm.Filter{Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Ping"}}
	f2 := sm.Filter{Key: f1.Key, BreakConn: true}
	for _, c := range []struct {
		filters  []sm.Filter
		inFlight int
	}{{[]sm.Filter{f1, f2}, 0}, {[]sm.Filter{f2, f1}, 1}} {
		s := NewSearch(Config{Props: poisonAt(3), Factory: newToy, Filters: c.filters})
		next := s.ApplyEvent(twoNodeStart(), sm.Delivery(1, 2, ping{N: 1}))
		if next == nil || next.InFlightCount() != c.inFlight {
			t.Fatalf("filters %+v: successor %v, want the first filter's action (%d in flight)", c.filters, next, c.inFlight)
		}
	}
	if _, ok := sm.FilterFor([]sm.Filter{f1, f2}, sm.Delivery(2, 1, ping{N: 1})); ok {
		t.Fatal("FilterFor matched an event no filter covers")
	}
}

// TestApplyFilteredDropsMessage: the corrective action consumes the
// in-flight message without running the handler.
func TestApplyFilteredDropsMessage(t *testing.T) {
	g := twoNodeStart()
	s := NewSearch(Config{Props: poisonAt(3), Factory: newToy})
	ev := sm.Delivery(1, 2, ping{N: 1})
	next := s.applyFiltered(g, &ev, sm.Filter{Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Ping"}}, getScratch())
	if next == nil {
		t.Fatal("filtered apply failed on an in-flight message")
	}
	if next.InFlightCount() != 0 {
		t.Fatalf("message not consumed: %d in flight", next.InFlightCount())
	}
	if next.Node(2).Svc.(*toy).counter != 0 {
		t.Fatal("handler ran despite the filter")
	}
	if g.InFlightCount() != 1 {
		t.Fatal("predecessor state mutated")
	}
}

// TestApplyFilteredBreakConn: with BreakConn set, dropping the message also
// queues an RST notification toward the sender.
func TestApplyFilteredBreakConn(t *testing.T) {
	g := twoNodeStart()
	s := NewSearch(Config{Props: poisonAt(3), Factory: newToy})
	ev := sm.Delivery(1, 2, ping{N: 1})
	next := s.applyFiltered(g, &ev, sm.Filter{
		Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Ping"}, BreakConn: true,
	}, getScratch())
	if next == nil {
		t.Fatal("filtered apply failed")
	}
	if next.InFlightCount() != 1 {
		t.Fatalf("in-flight = %d, want 1 (the RST)", next.InFlightCount())
	}
	// The RST must be deliverable as a transport error at the sender.
	after := s.ApplyEvent(next, sm.TransportError(1, 2))
	if after == nil {
		t.Fatal("queued RST not deliverable")
	}
	if after.Node(1).Svc.(*toy).errs != 1 {
		t.Fatal("sender did not observe the transport error")
	}
}

// TestApplyFilteredInapplicable: filtering a non-message event, or a
// message that is not in flight, yields no successor.
func TestApplyFilteredInapplicable(t *testing.T) {
	g := twoNodeStart()
	s := NewSearch(Config{Props: poisonAt(3), Factory: newToy})
	f := sm.Filter{Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Ping"}}
	timer, absent := sm.TimerFiring(1, "tick"), sm.Delivery(2, 1, ping{N: 9})
	if s.applyFiltered(g, &timer, f, getScratch()) != nil {
		t.Fatal("filtered a timer event into a successor")
	}
	if s.applyFiltered(g, &absent, f, getScratch()) != nil {
		t.Fatal("filtered a message that is not in flight")
	}
}
