package mc

import (
	"testing"

	"crystalball/internal/sm"
)

// These tests are the differential oracle for the incremental fingerprint:
// GState.Hash is maintained in O(delta) through every successor
// constructor, and must equal FullHash — a from-scratch re-encoding of
// every node, message and stale pair — at every step of every walk.

// oracleWalk drives random event paths from start and checks the
// incremental hash against the from-scratch recomputation at every state.
func oracleWalk(t *testing.T, s *Search, start *GState, walks, depth int, seed int64) {
	t.Helper()
	checkState := func(g *GState, step int) {
		t.Helper()
		if got, want := g.Hash(), g.FullHash(); got != want {
			t.Fatalf("step %d: incremental hash %#x != from-scratch %#x", step, got, want)
		}
	}
	checkState(start, -1)
	for w := 0; w < walks; w++ {
		rng := sm.NewRand(seed ^ int64(w+1)*-0x61c8864680b583eb)
		g := start
		for step := 0; step < depth; step++ {
			network, internal := s.EnabledEvents(g)
			all := append([]sm.Event{}, network...)
			for _, id := range g.Nodes() {
				all = append(all, internal[id]...)
			}
			if len(all) == 0 {
				break
			}
			var next *GState
			for _, i := range rng.Perm(len(all)) {
				if next = s.ApplyEvent(g, all[i]); next != nil {
					break
				}
			}
			if next == nil {
				break
			}
			checkState(next, step)
			// The predecessor must be untouched by successor construction.
			checkState(g, step)
			g = next
		}
	}
}

// TestHashOracleToyResets covers the reset transition's full bookkeeping —
// dropped in-flight traffic, stale-pair marking and clearing, RST fan-out,
// the resets counter — plus message, timer, app, error and drop events.
func TestHashOracleToyResets(t *testing.T) {
	s := NewSearch(Config{
		Props:            poisonAt(1000),
		Factory:          newToy,
		ExploreResets:    true,
		MaxResetsPerPath: 2,
	})
	oracleWalk(t, s, multiTimerStart(), 30, 25, 11)
}

// The Chord and Paxos oracle walks live in services_test.go (package
// mc_test): real services register scenarios, whose package imports mc.

// TestHashOracleFiltered covers the filtered-apply constructor (message
// dropped, optional RST queued) which bypasses runHandler.
func TestHashOracleFiltered(t *testing.T) {
	for _, breakConn := range []bool{false, true} {
		g := twoNodeStart()
		s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
		ev := sm.Delivery(1, 2, ping{N: 1})
		next := s.applyFiltered(g, &ev, sm.Filter{
			Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Ping"}, BreakConn: breakConn,
		}, getScratch())
		if next == nil {
			t.Fatal("filtered apply failed")
		}
		if got, want := next.Hash(), next.FullHash(); got != want {
			t.Fatalf("breakConn=%v: incremental %#x != from-scratch %#x", breakConn, got, want)
		}
	}
}

// TestHashOracleMarkStale covers the exported MarkStale mutator.
func TestHashOracleMarkStale(t *testing.T) {
	g := twoNodeStart()
	g.MarkStale(1, 2)
	g.MarkStale(1, 2) // idempotent: must not double-count
	if got, want := g.Hash(), g.FullHash(); got != want {
		t.Fatalf("incremental %#x != from-scratch %#x", got, want)
	}
	if !g.Stale(1, 2) {
		t.Fatal("stale pair lost")
	}
}

// TestHashMatchesFullHashOnConstruction: states assembled through the
// public constructors fingerprint identically to the oracle.
func TestHashMatchesFullHashOnConstruction(t *testing.T) {
	for _, mk := range []func() *GState{NewGState, twoNodeStart, multiTimerStart} {
		g := mk()
		if got, want := g.Hash(), g.FullHash(); got != want {
			t.Fatalf("incremental %#x != from-scratch %#x", got, want)
		}
	}
}

// sameSet reports whether two timer sets are the same slice (the sharing
// contract: a set equal to the parent's is taken, not copied).
func sameSet(a, b sm.TimerSet) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestSplitEncodingSegmentSharing covers the three ways a handler can leave
// the (service, timers) encoding relative to its parent's — only the timers
// changed, only the service changed, and a chain of both — none of which
// keeps a byte of it: the hashes finalize streams from its one encoding pass
// must match the from-scratch FullHash oracle each time, and the timer set
// itself is still shared with the parent exactly when it is equal.
func TestSplitEncodingSegmentSharing(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	g := multiTimerStart()
	parent := g.Node(1)

	// "boom" has no handler logic: only the timer set changes.
	next := s.ApplyEvent(g, sm.TimerFiring(1, "boom"))
	if next == nil {
		t.Fatal("boom timer not applicable")
	}
	child := next.Node(1)
	if sameSet(parent.Timers, child.Timers) {
		t.Error("timer set changed but was shared")
	}
	if got, want := next.Hash(), next.FullHash(); got != want {
		t.Fatalf("timer-only successor: incremental %#x != from-scratch %#x", got, want)
	}

	// "tick" increments the counter and re-arms itself: the service
	// changes, the timer set does not — the sorted name list must be shared.
	next = s.ApplyEvent(g, sm.TimerFiring(1, "tick"))
	if next == nil {
		t.Fatal("tick timer not applicable")
	}
	child = next.Node(1)
	if !sameSet(parent.Timers, child.Timers) {
		t.Error("service-only successor did not share the parent's timer set")
	}
	if child.encLen != parent.encLen || child.chash == parent.chash {
		t.Errorf("service-only successor: encoding length %d and hash %#x against the parent's %d and %#x, want the same length and another hash",
			child.encLen, child.chash, parent.encLen, parent.chash)
	}
	if got, want := next.Hash(), next.FullHash(); got != want {
		t.Fatalf("service-only successor: incremental %#x != from-scratch %#x", got, want)
	}

	// And along a chain: a grandchild via another no-op timer.
	next2 := s.ApplyEvent(next, sm.TimerFiring(1, "zap"))
	if next2 == nil {
		t.Fatal("zap timer not applicable")
	}
	if got, want := next2.Hash(), next2.FullHash(); got != want {
		t.Fatalf("chained successor: incremental %#x != from-scratch %#x", got, want)
	}
	if got, want := next2.EncodedSize(), next2.fullEncodedSize(); got != want {
		t.Fatalf("chained successor: incremental footprint %d != from-scratch %d", got, want)
	}
}

// TestSplitEncodingLocalHash: the two hashes finalize streams (header, then
// the scratch's service||timers bytes) equal the hashes of the one combined
// encoding (NodeID, length-prefixed service||timers) built here.
func TestSplitEncodingLocalHash(t *testing.T) {
	g := multiTimerStart()
	for _, id := range g.Nodes() {
		ns := g.Node(id)
		e := sm.NewEncoder()
		ne := sm.NewEncoder()
		ns.Svc.EncodeState(ne)
		encodeTimers(ne, ns.Timers)
		e.NodeID(id)
		e.Bytes2(ne.Bytes())
		if got, want := ns.localHash(), e.Hash(); got != want {
			t.Errorf("node %v: split localHash %#x != combined-encoding hash %#x", id, got, want)
		}
		if got, want := ns.chash, e.DomainHash(domainNode); got != want {
			t.Errorf("node %v: split chash %#x != combined-encoding domain hash %#x", id, got, want)
		}
	}
}
