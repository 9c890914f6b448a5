package mc

import (
	"math/rand"
	"slices"
	"testing"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Tests for the slice layout of GState: nodes parallel to the sorted ids,
// stale pairs as a sorted slice, id lookup by binary search.

// sparseStart builds a state whose ids leave gaps (3, 7, 12), filled out of
// ascending order, so lookups below, between and above the present ids are
// all exercised.
func sparseStart() *GState {
	g := NewGState()
	for _, id := range []sm.NodeID{7, 12, 3} {
		g.AddNode(id, newToy(id), sm.TimerSet{"tick"})
	}
	return g
}

// TestStalePermutationsCanonical: whatever order stale pairs are set and
// cleared in, states holding the same pair set are the same state — equal
// incremental and from-scratch fingerprints, equal footprint, and an
// identical (sorted) stale slice, so nothing downstream can observe the
// order of arrival.
func TestStalePermutationsCanonical(t *testing.T) {
	set := []pair{{3, 7}, {7, 3}, {12, 3}, {3, 12}, {7, 12}, {12, 7}}
	drop := []pair{{7, 3}, {3, 12}, {12, 7}, {1, 2}} // the last was never set
	var want *GState
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		start := sparseStart()
		sc := getScratch()
		next := sc.begin(start, 0)
		for _, i := range rng.Perm(len(set)) {
			next.setStale(set[i], sc)
			next.setStale(set[i], sc) // idempotent
		}
		for _, i := range rng.Perm(len(drop)) {
			if present := next.clearStale(drop[i], sc); present != (drop[i] != pair{1, 2}) {
				t.Fatalf("clearStale(%v) reported present=%v", drop[i], present)
			}
		}
		g := sc.publish(start)
		putScratch(sc)
		if got, full := g.Hash(), g.FullHash(); got != full {
			t.Fatalf("trial %d: incremental %#x != from-scratch %#x", trial, got, full)
		}
		if got, full := g.EncodedSize(), g.fullEncodedSize(); got != full {
			t.Fatalf("trial %d: incremental size %d != from-scratch %d", trial, got, full)
		}
		for i := 1; i < len(g.stale); i++ {
			if !g.stale[i-1].less(g.stale[i]) {
				t.Fatalf("trial %d: stale slice not sorted and duplicate-free: %v", trial, g.stale)
			}
		}
		if want == nil {
			want = g
			continue
		}
		if g.Hash() != want.Hash() || g.EncodedSize() != want.EncodedSize() || !slices.Equal(g.stale, want.stale) {
			t.Fatalf("trial %d: order leaked: hash %#x/%#x size %d/%d stale %v/%v",
				trial, g.Hash(), want.Hash(), g.EncodedSize(), want.EncodedSize(), g.stale, want.stale)
		}
	}
	if !slices.Equal(want.stale, []pair{{3, 7}, {7, 12}, {12, 3}}) {
		t.Fatalf("surviving pairs = %v", want.stale)
	}
	// Clearing one sender's pairs wholesale (what a reset does) agrees with
	// clearing them one by one, and a successor never writes its parent.
	sa, sb := newScratch(), newScratch()
	sa.begin(want, 0).clearStaleFrom(7, sa)
	sb.begin(want, 0).clearStale(pair{7, 12}, sb)
	a, b := sa.publish(want), sb.publish(want)
	if a.Hash() != b.Hash() || a.Hash() != a.FullHash() || !slices.Equal(a.stale, b.stale) {
		t.Fatalf("clearStaleFrom diverged: %v vs %v", a.stale, b.stale)
	}
	if len(want.stale) != 3 || want.Hash() != want.FullHash() {
		t.Fatalf("successor mutation reached the parent: %v", want.stale)
	}
}

// TestAbsentNodeLookup: an id outside the snapshot — below, between or
// above the present ids — has no local state, enables nothing, and a send
// addressed to it is counted as a dummy redirect rather than delivered.
func TestAbsentNodeLookup(t *testing.T) {
	g := sparseStart()
	if got := g.Nodes(); !slices.Equal(got, []sm.NodeID{3, 7, 12}) {
		t.Fatalf("Nodes() = %v, want ascending [3 7 12]", got)
	}
	for _, id := range []sm.NodeID{3, 7, 12} {
		if ns := g.Node(id); ns == nil || ns.Svc.(*toy).self != id {
			t.Fatalf("Node(%d) = %+v, nodes misaligned with ids", id, ns)
		}
	}
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	v := props.NewView()
	g.FillView(v)
	for _, absent := range []sm.NodeID{1, 5, 9, 99} {
		if g.Node(absent) != nil || v.Get(absent) != nil {
			t.Fatalf("absent node %d has a state or a view", absent)
		}
		if next := s.ApplyEvent(g, sm.TimerFiring(absent, "tick")); next != nil {
			t.Fatalf("timer at absent node %d produced a successor", absent)
		}
		// Node 7 kicks with the absent id as its only peer.
		h := NewGState()
		k := newToy(7).(*toy)
		k.peers[absent] = true
		h.AddNode(7, k, nil)
		h.AddNode(3, newToy(3), nil)
		s.dummyRedirects.Store(0)
		next := s.ApplyEvent(h, sm.AppInvocation(7, kick{}, nil))
		if next == nil || next.InFlightCount() != 0 || s.dummyRedirects.Load() != 1 {
			t.Fatalf("send to absent node %d: successor %v, redirects %d, want 0 in flight and 1 redirect",
				absent, next, s.dummyRedirects.Load())
		}
		if next.Hash() != next.FullHash() {
			t.Fatalf("send to absent node %d desynchronised the fingerprint", absent)
		}
	}
}
