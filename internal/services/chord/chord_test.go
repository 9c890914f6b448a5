package chord

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
)

// newCtx returns the buffering context (sm.Effects) for direct handler tests.
func newCtx(self sm.NodeID) *sm.Effects {
	fx := new(sm.Effects)
	fx.Begin(self, nil, rand.New(rand.NewSource(1)))
	return fx
}

func mk(self sm.NodeID, fixes Fix, bootstrap ...sm.NodeID) *Ring {
	return New(Config{Bootstrap: bootstrap, Fixes: fixes})(self).(*Ring)
}

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b sm.NodeID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, false},
		{15, 1, 10, false},
		{15, 10, 1, true}, // wrap-around
		{0, 10, 1, true},  // wrap-around below
		{5, 10, 1, false}, // inside the excluded arc
		{5, 7, 7, true},   // full-ring interval excludes only a
		{7, 7, 7, false},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%v,%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBug1LoopbackUpdatePredSetsSelf(t *testing.T) {
	// Figure 10's final step: C's predecessor is unset, its successor
	// list names other nodes, and a loopback UpdatePred arrives.
	c := mk(3, 0)
	c.Joined = true
	c.Pred = sm.NoNode
	c.Succs = []sm.NodeID{3, 1} // self-loop plus another member
	ctx := newCtx(3)
	c.handleUpdatePred(ctx, 3)
	if c.Pred != 3 {
		t.Fatal("buggy handler should set pred to self")
	}
	v := props.NewView()
	v.Add(3, c, nil)
	if PropPredSelfImpliesSuccSelf.Check(v) {
		t.Fatal("property should be violated")
	}

	f := mk(3, FixSelfPred)
	f.Joined = true
	f.Pred = sm.NoNode
	f.Succs = []sm.NodeID{3, 1}
	f.handleUpdatePred(ctx, 3)
	if f.Pred == 3 {
		t.Fatal("fixed handler must not set pred to self while others exist")
	}
}

func TestBug2OrderingViolationOnMerge(t *testing.T) {
	// Figure 11: A_{i-1}=2 has pred A_i=3 and succ A_i=3; stabilization
	// returns A_i's succ list containing A_{i-2}=1.
	a := mk(2, 0)
	a.Joined = true
	a.Pred = 3
	a.Succs = []sm.NodeID{3, 2}
	ctx := newCtx(2)
	a.handleGetPredReply(ctx, 3, GetPredReply{Pred: 2, Succs: []sm.NodeID{1, 3}})
	v := props.NewView()
	v.Add(2, a, nil)
	if PropNodeOrdering.Check(v) {
		t.Fatalf("ordering constraint should be violated: pred=%v succs=%v", a.Pred, a.Succs)
	}

	f := mk(2, FixOrdering)
	f.Joined = true
	f.Pred = 3
	f.Succs = []sm.NodeID{3, 2}
	f.handleGetPredReply(ctx, 3, GetPredReply{Pred: 2, Succs: []sm.NodeID{1, 3}})
	v2 := props.NewView()
	v2.Add(2, f, nil)
	if !PropNodeOrdering.Check(v2) {
		t.Fatalf("fixed merge should restore ordering: pred=%v succs=%v", f.Pred, f.Succs)
	}
	if f.Pred != 1 {
		t.Fatalf("fixed merge should adopt 1 as predecessor, got %v", f.Pred)
	}
}

func TestBug3SelfLoopFromAdoptedList(t *testing.T) {
	// A rejoining node receives a FindPredReply whose successor list
	// names the node itself (its previous incarnation).
	c := mk(3, 0)
	c.Joining = true
	ctx := newCtx(3)
	c.handleFindPredReply(ctx, 1, FindPredReply{Succs: []sm.NodeID{3, 5}})
	if c.Succs[0] != 3 {
		t.Fatalf("buggy handler should adopt the self-loop, got %v", c.Succs)
	}
	v := props.NewView()
	v.Add(3, c, nil)
	if PropNoForeignSelfLoop.Check(v) {
		t.Fatal("self-loop property should be violated")
	}

	f := mk(3, FixSelfInSuccs)
	f.Joining = true
	f.handleFindPredReply(ctx, 1, FindPredReply{Succs: []sm.NodeID{3, 5}})
	if f.Succs[0] == 3 {
		t.Fatalf("fixed handler should filter the self entry, got %v", f.Succs)
	}
}

// --- live ring formation ----------------------------------------------------

func buildRing(t *testing.T, seed int64, n int, fixes Fix) (*sim.Simulator, []*runtime.Node) {
	t.Helper()
	s := sim.New(seed)
	net := simnet.New(s, simnet.UniformPath{Latency: 15 * time.Millisecond, BwBps: 1e8})
	ids := make([]sm.NodeID, n)
	for i := range ids {
		ids[i] = sm.NodeID(i + 1)
	}
	factory := New(Config{Bootstrap: ids[:1], Fixes: fixes})
	nodes := make([]*runtime.Node, n)
	for i, id := range ids {
		nodes[i] = runtime.NewNode(s, net, id, factory)
	}
	// Stagger joins so each node finds a stable ring to join.
	for i, node := range nodes {
		node := node
		s.After(time.Duration(i)*700*time.Millisecond, func() { node.App(AppJoin{}) })
	}
	return s, nodes
}

func TestLiveRingForms(t *testing.T) {
	const n = 6
	s, nodes := buildRing(t, 1, n, AllFixes)
	s.RunFor(60 * time.Second)
	rings := make(map[sm.NodeID]*Ring)
	for _, node := range nodes {
		r := node.Service().(*Ring)
		if !r.Joined {
			t.Fatalf("node %v did not join", r.Self)
		}
		rings[node.ID] = r
	}
	// Following first successors from node 1 must traverse the whole
	// ring and return to 1 in id order.
	cur := sm.NodeID(1)
	visited := map[sm.NodeID]bool{}
	for i := 0; i < n; i++ {
		if visited[cur] {
			t.Fatalf("successor chain loops early at %v (visited %v)", cur, visited)
		}
		visited[cur] = true
		next := rings[cur].firstSucc()
		want := cur%sm.NodeID(n) + 1
		if next != want {
			t.Fatalf("succ(%v) = %v, want %v", cur, next, want)
		}
		cur = next
	}
	if cur != 1 {
		t.Fatalf("ring does not close: ended at %v", cur)
	}
	// Predecessors must be consistent too.
	for id, r := range rings {
		want := id - 1
		if want == 0 {
			want = n
		}
		if r.Pred != want {
			t.Fatalf("pred(%v) = %v, want %v", id, r.Pred, want)
		}
	}
}

func TestLiveRingSatisfiesProperties(t *testing.T) {
	s, nodes := buildRing(t, 2, 5, AllFixes)
	for i := 0; i < 60; i++ {
		s.RunFor(time.Second)
		v := props.NewView()
		for _, node := range nodes {
			svc, timers := node.View()
			v.Add(node.ID, svc, timers)
		}
		if violated := Properties.Check(v); len(violated) != 0 {
			t.Fatalf("fixed ring violated %v at t=%ds", violated, i)
		}
	}
}

// --- the paper's Figure 10 scenario through the model checker ---------------

func TestConsequencePredictionFindsFigure10(t *testing.T) {
	// Start state: the live prefix already happened — B (node 2) reset
	// and A (node 1) removed it, leaving A's successor pointing at C
	// (node 3); a further member D (node 5) completes the ring so that
	// C's post-error successor list still names other nodes.
	// Consequence prediction must discover C's reset + rejoin sequence
	// ending with pred(C)=C while other successors exist.
	factory := New(Config{Bootstrap: []sm.NodeID{1}})
	a := factory(1).(*Ring)
	a.Joined = true
	a.Pred = 5
	a.Succs = []sm.NodeID{3, 5, 1}

	c := factory(3).(*Ring)
	c.Joined = true
	c.Pred = 1
	c.Succs = []sm.NodeID{5, 1, 3}

	d := factory(5).(*Ring)
	d.Joined = true
	d.Pred = 3
	d.Succs = []sm.NodeID{1, 3, 5}

	g := mc.NewGState()
	g.AddNode(1, a, sm.TimerSet{TimerStabilize})
	g.AddNode(3, c, sm.TimerSet{TimerStabilize})
	g.AddNode(5, d, sm.TimerSet{TimerStabilize})

	s := mc.NewSearch(mc.Config{
		Props:             props.Set{PropPredSelfImpliesSuccSelf},
		Factory:           factory,
		Mode:              mc.Consequence,
		ExploreResets:     true,
		ExploreConnBreaks: true,
		MaxResetsPerPath:  1,
		Budget:            mc.Budget{States: 150000, Violations: 1},
	})
	res := s.Run(g)
	if len(res.Violations) == 0 {
		t.Fatalf("consequence prediction missed the Figure 10 inconsistency (%d states)", res.StatesExplored)
	}
	sawReset := false
	for _, ev := range res.Violations[0].Path {
		if ev.EventKey == sm.Reset(3).EventKey {
			sawReset = true
		}
	}
	if !sawReset {
		t.Errorf("path lacks C's reset: %v", describe(res.Violations[0].Path))
	}
}

func describe(path []sm.Event) []string {
	out := make([]string, len(path))
	for i, ev := range path {
		out[i] = ev.Describe()
	}
	return out
}

// --- encode/clone -----------------------------------------------------------

func TestCloneIndependence(t *testing.T) {
	a := mk(1, 0)
	a.Succs = []sm.NodeID{2, 3}
	b := a.Clone().(*Ring)
	b.Succs[0] = 9
	if a.Succs[0] != 2 {
		t.Fatal("clone shares successor list")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := mk(7, FixOrdering, 1)
	a.Joined = true
	a.Pred = 5
	a.Succs = []sm.NodeID{8, 9, 7}
	data := sm.EncodeFullState(a, sm.TimerSet{TimerStabilize})
	factory := New(Config{Bootstrap: []sm.NodeID{1}, Fixes: FixOrdering})
	svc, timers, err := sm.DecodeFullState(factory, 7, data)
	if err != nil {
		t.Fatal(err)
	}
	b := svc.(*Ring)
	if b.Pred != 5 || len(b.Succs) != 3 || b.Succs[0] != 8 || !b.Joined {
		t.Fatalf("round trip lost state: %+v", b)
	}
	if !timers.Has(TimerStabilize) {
		t.Fatal("timer set lost")
	}
	if !bytes.Equal(sm.EncodeService(a), sm.EncodeService(b)) {
		t.Fatal("hash mismatch")
	}
}

func TestCapListDedupes(t *testing.T) {
	r := mk(5, 0)
	got := r.capList([]sm.NodeID{7, 7, 8, 5, 9, 10})
	if len(got) != 4 {
		t.Fatalf("capList length = %d, want 4 (SuccListLen)", len(got))
	}
	if got[0] != 7 || got[1] != 8 || got[2] != 5 {
		t.Fatalf("capList order wrong: %v", got)
	}
	// Self retained as fallback.
	found := false
	for _, s := range got {
		if s == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("self missing from capped list")
	}
}

// neighborsViaSet is Neighbors as it was before it built its slice in place:
// collect into a map, then sort the keys.
func neighborsViaSet(r *Ring) []sm.NodeID {
	set := make(map[sm.NodeID]bool)
	if r.Pred != sm.NoNode && r.Pred != r.Self {
		set[r.Pred] = true
	}
	for _, s := range r.Succs {
		if s != r.Self {
			set[s] = true
		}
	}
	return sm.SortedNodes(set)
}

// TestNeighborsMatchesSetImplementation pins Neighbors against the map-and-
// sort implementation it replaced, on random rings: ids from a small range so
// that the predecessor, the node itself and repeated successors all collide.
func TestNeighborsMatchesSetImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		r := &Ring{Self: sm.NodeID(rng.Intn(8)), Pred: sm.NodeID(rng.Intn(9) - 1)}
		for n := rng.Intn(7); n > 0; n-- {
			r.Succs = append(r.Succs, sm.NodeID(rng.Intn(8)))
		}
		if got, want := r.Neighbors(), neighborsViaSet(r); !slices.Equal(got, want) {
			t.Fatalf("self %v pred %v succs %v: Neighbors %v, the set implementation %v", r.Self, r.Pred, r.Succs, got, want)
		}
	}
}
