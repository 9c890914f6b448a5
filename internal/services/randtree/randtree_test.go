package randtree

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

// --- handler-level unit tests ----------------------------------------------

// newRealCtx returns the buffering context (sm.Effects) for direct handler tests.
func newRealCtx(self sm.NodeID) *sm.Effects {
	fx := new(sm.Effects)
	fx.Begin(self, nil, rand.New(rand.NewSource(1)))
	return fx
}

func mk(self sm.NodeID, fixes Fix, bootstrap ...sm.NodeID) *Tree {
	return New(Config{Bootstrap: bootstrap, Fixes: fixes})(self).(*Tree)
}

func TestBug1UpdateSiblingKeepsStaleChild(t *testing.T) {
	// Node n9's view in Figure 2: n13 is its child; the root announces
	// n13 as a new sibling after n13's silent reset + rejoin.
	n9 := mk(9, 0)
	n9.Joined = true
	n9.Parent = 1
	n9.Root = 1
	n9.Children[13] = true
	ctx := newRealCtx(9)
	n9.HandleMessage(ctx, 1, UpdateSibling{Sibling: 13, Add: true})
	if !n9.Children[13] || !n9.Siblings[13] {
		t.Fatal("buggy handler should leave n13 in both lists")
	}
	v := props.NewView()
	v.Add(9, n9, nil)
	if PropChildrenSiblingsDisjoint.Check(v) {
		t.Fatal("property should be violated")
	}

	fixed := mk(9, FixUpdateSiblingChildren)
	fixed.Joined = true
	fixed.Parent = 1
	fixed.Root = 1
	fixed.Children[13] = true
	fixed.HandleMessage(ctx, 1, UpdateSibling{Sibling: 13, Add: true})
	if fixed.Children[13] {
		t.Fatal("fixed handler should purge the stale child entry")
	}
	if !fixed.Siblings[13] {
		t.Fatal("fixed handler should still add the sibling")
	}
}

func TestBug3NewRootKeptAsChild(t *testing.T) {
	// Figure 9: node 69 has 9 as a child; NewRoot(9) arrives.
	n69 := mk(69, 0)
	n69.Joined = true
	n69.Parent = 61
	n69.Root = 61
	n69.Children[9] = true
	ctx := newRealCtx(69)
	n69.HandleMessage(ctx, 61, NewRoot{Root: 9})
	if !n69.Children[9] {
		t.Fatal("buggy handler should keep the stale child")
	}

	fixed := mk(69, FixNewRootChild)
	fixed.Joined = true
	fixed.Parent = 61
	fixed.Root = 61
	fixed.Children[9] = true
	fixed.HandleMessage(ctx, 61, NewRoot{Root: 9})
	if fixed.Children[9] {
		t.Fatal("fixed handler should purge the new root from children")
	}
	if fixed.Root != 9 {
		t.Fatal("root pointer not installed")
	}
}

func TestBug4PromotionKeepsSiblings(t *testing.T) {
	b := mk(5, 0)
	b.Joined = true
	b.Parent = 2
	b.Root = 2
	b.Siblings[7] = true
	ctx := newRealCtx(5)
	b.HandleTransportError(ctx, 2) // parent reset its connections
	if !b.IsRoot {
		t.Fatal("node should promote itself on parent loss")
	}
	if len(b.Siblings) == 0 {
		t.Fatal("buggy promotion should keep the stale sibling list")
	}
	v := props.NewView()
	v.Add(5, b, nil)
	if PropRootHasNoSiblings.Check(v) {
		t.Fatal("property should be violated")
	}

	f := mk(5, FixPromoteSiblings)
	f.Joined = true
	f.Parent = 2
	f.Root = 2
	f.Siblings[7] = true
	f.HandleTransportError(ctx, 2)
	if len(f.Siblings) != 0 {
		t.Fatal("fixed promotion should clear siblings")
	}
}

func TestBug5SelfJoinSchedulesNoTimer(t *testing.T) {
	a := mk(3, 0) // no bootstrap: self-join
	ctx := newRealCtx(3)
	a.HandleApp(ctx, AppJoin{})
	if !a.Joined || !a.IsRoot {
		t.Fatal("self-join failed")
	}
	if ctx.Timers.Has(TimerRecovery) {
		t.Fatal("buggy self-join should not schedule the recovery timer")
	}
	// The violation manifests once the peer list becomes non-empty: a
	// smaller node joins and we relinquish the root role.
	a.HandleMessage(ctx, 1, Join{Origin: 1})
	a.HandleMessage(ctx, 1, JoinReply{Root: 1})
	if len(a.Peers) == 0 {
		t.Fatal("handover should have populated the peer list")
	}
	v := props.NewView()
	v.Add(3, a, ctx.Timers)
	if PropRecoveryTimer.Check(v) {
		t.Fatal("RecoveryTimerRuns should be violated")
	}

	f := mk(3, FixJoinSelfTimer)
	ctx2 := newRealCtx(3)
	f.HandleApp(ctx2, AppJoin{})
	if !ctx2.Timers.Has(TimerRecovery) {
		t.Fatal("fixed self-join should schedule the recovery timer")
	}
}

func TestBug6AcceptChildKeepsSiblingEntry(t *testing.T) {
	r := mk(1, 0)
	r.Joined = true
	r.IsRoot = true
	r.Root = 1
	r.Siblings[4] = true // stale entry from an earlier life
	ctx := newRealCtx(1)
	r.HandleMessage(ctx, 4, Join{Origin: 4})
	if !r.Children[4] || !r.Siblings[4] {
		t.Fatal("buggy accept should leave node 4 in both lists")
	}

	f := mk(1, FixAcceptChildSibling)
	f.Joined = true
	f.IsRoot = true
	f.Root = 1
	f.Siblings[4] = true
	f.HandleMessage(ctx, 4, Join{Origin: 4})
	if f.Siblings[4] {
		t.Fatal("fixed accept should purge the sibling entry")
	}
}

func TestBug7RelinquishKeepsSiblings(t *testing.T) {
	r := mk(61, 0)
	r.Joined = true
	r.IsRoot = true
	r.Root = 61
	r.Children[65] = true
	r.Siblings[99] = true // stale from before it became root
	ctx := newRealCtx(61)
	r.HandleMessage(ctx, 9, JoinReply{Root: 9}) // 9 accepted our handover join
	if r.IsRoot {
		t.Fatal("root should have relinquished")
	}
	if len(r.Siblings) == 0 {
		t.Fatal("buggy relinquish should keep stale siblings")
	}

	f := mk(61, FixRelinquishSiblings)
	f.Joined = true
	f.IsRoot = true
	f.Root = 61
	f.Children[65] = true
	f.Siblings[99] = true
	f.HandleMessage(ctx, 9, JoinReply{Root: 9})
	if len(f.Siblings) != 0 {
		t.Fatal("fixed relinquish should clear siblings")
	}
}

func TestBug2JoinReplyStaleEntries(t *testing.T) {
	n := mk(9, 0)
	n.Children[5] = true // stale: 5 was our child before we reset... then
	// we rejoined under 5.
	ctx := newRealCtx(9)
	n.HandleMessage(ctx, 5, JoinReply{Root: 1})
	if !n.Children[5] {
		t.Fatal("buggy JoinReply should keep the stale child entry for the new parent")
	}
	f := mk(9, FixJoinReplyStale)
	f.Children[5] = true
	f.HandleMessage(ctx, 5, JoinReply{Root: 1})
	if f.Children[5] {
		t.Fatal("fixed JoinReply should purge the new parent from children")
	}
}

// TestAcceptSendsInOneOrder pins that a handler's sends are a function of
// (local state, event): the handler memo and the edge seeds assume it, and
// the simulator draws each send's latency in send order. A root that ranged
// over its children map sent its sibling updates in map order.
func TestAcceptSendsInOneOrder(t *testing.T) {
	var first []sm.Outgoing
	for i := 0; i < 50; i++ {
		root := mk(1, 0)
		root.Joined, root.IsRoot, root.Root = true, true, 1
		for _, c := range []sm.NodeID{2, 3, 4} {
			root.Children[c] = true
		}
		ctx := newRealCtx(1)
		root.accept(ctx, 5)
		if i == 0 {
			first = slices.Clone(ctx.Sends)
			continue
		}
		if !slices.Equal(ctx.Sends, first) {
			t.Fatalf("accept %d sent %v, accept 0 sent %v", i, ctx.Sends, first)
		}
	}
}

// --- live integration -------------------------------------------------------

// buildTree deploys n RandTree nodes and has them all join.
func buildTree(t *testing.T, seed int64, n int, fixes Fix) (*sim.Simulator, []*runtime.Node) {
	t.Helper()
	s := sim.New(seed)
	net := simnet.New(s, simnet.UniformPath{Latency: 20 * time.Millisecond, BwBps: 1e8})
	ids := make([]sm.NodeID, n)
	for i := range ids {
		ids[i] = sm.NodeID(i + 1)
	}
	factory := New(Config{Bootstrap: ids[:1], Fixes: fixes})
	nodes := make([]*runtime.Node, n)
	for i, id := range ids {
		nodes[i] = runtime.NewNode(s, net, id, factory)
	}
	for _, node := range nodes {
		node.App(AppJoin{})
	}
	return s, nodes
}

func TestLiveTreeForms(t *testing.T) {
	s, nodes := buildTree(t, 1, 8, AllFixes)
	s.RunFor(30 * time.Second)
	joined := 0
	roots := 0
	for _, node := range nodes {
		tree := node.Service().(*Tree)
		if tree.Joined {
			joined++
		}
		if tree.Joined && tree.IsRoot {
			roots++
			if tree.Self != 1 {
				t.Fatalf("root should be the smallest id, got %v", tree.Self)
			}
		}
	}
	if joined != 8 {
		t.Fatalf("joined = %d, want 8", joined)
	}
	if roots != 1 {
		t.Fatalf("roots = %d, want 1", roots)
	}
	// Every non-root node's parent considers it a child.
	byID := map[sm.NodeID]*Tree{}
	for _, node := range nodes {
		byID[node.ID] = node.Service().(*Tree)
	}
	for _, node := range nodes {
		tree := node.Service().(*Tree)
		if tree.IsRoot {
			continue
		}
		p := byID[tree.Parent]
		if p == nil || !p.Children[tree.Self] {
			t.Fatalf("parent/child disagreement for %v (parent %v)", tree.Self, tree.Parent)
		}
	}
}

func TestLiveTreeSatisfiesPropertiesWhenFixed(t *testing.T) {
	s, nodes := buildTree(t, 2, 10, AllFixes)
	violations := 0
	check := func() {
		v := props.NewView()
		for _, node := range nodes {
			svc, timers := node.View()
			v.Add(node.ID, svc, timers)
		}
		if !Properties.Holds(v) {
			violations++
		}
	}
	for i := 0; i < 30; i++ {
		s.RunFor(time.Second)
		check()
	}
	if violations != 0 {
		t.Fatalf("fixed tree violated properties in %d polls", violations)
	}
}

// --- the paper's Figure 2 scenario through the model checker ---------------

// figure2Start reconstructs the first row of Figure 2: n1 is root with
// child n9; n13 is n9's child.
func figure2Start(fixes Fix) (*mc.GState, sm.Factory) {
	factory := New(Config{Bootstrap: []sm.NodeID{1}, Fixes: fixes, MaxChildren: 2})
	n1 := factory(1).(*Tree)
	n1.Joined, n1.IsRoot, n1.Root = true, true, 1
	n1.Children[9] = true
	n1.Peers[9] = true

	n9 := factory(9).(*Tree)
	n9.Joined, n9.Root, n9.Parent = true, sm.NodeID(1), sm.NodeID(1)
	n9.Children[13] = true
	n9.Peers[1] = true
	n9.Peers[13] = true

	n13 := factory(13).(*Tree)
	n13.Joined, n13.Root, n13.Parent = true, sm.NodeID(1), sm.NodeID(9)
	n13.Peers[9] = true

	g := mc.NewGState()
	g.AddNode(1, n1, sm.TimerSet{TimerRecovery})
	g.AddNode(9, n9, sm.TimerSet{TimerRecovery})
	g.AddNode(13, n13, sm.TimerSet{TimerRecovery})
	return g, factory
}

func TestConsequencePredictionFindsFigure2(t *testing.T) {
	g, factory := figure2Start(0)
	s := mc.NewSearch(mc.Config{
		Props:            props.Set{PropChildrenSiblingsDisjoint},
		Factory:          factory,
		Mode:             mc.Consequence,
		ExploreResets:    true,
		MaxResetsPerPath: 1,
		Budget:           mc.Budget{States: 60000, Violations: 1},
	})
	res := s.Run(g)
	if len(res.Violations) == 0 {
		t.Fatalf("consequence prediction missed the Figure 2 inconsistency (%d states)", res.StatesExplored)
	}
	v := res.Violations[0]
	// The discovered path must involve a reset of n13 (the trigger).
	sawReset := false
	for _, ev := range v.Path {
		if ev.EventKey == sm.Reset(13).EventKey {
			sawReset = true
		}
	}
	if !sawReset {
		t.Errorf("path does not include n13's reset: %v", describe(v.Path))
	}
}

func TestFixedUpdateSiblingHandlerRepairsFigure2State(t *testing.T) {
	// With bug 1 fixed, delivering UpdateSibling(add 13) to an n9 that
	// still holds 13 as a child leaves the lists disjoint.
	n9 := mk(9, FixUpdateSiblingChildren)
	n9.Joined = true
	n9.Parent = 1
	n9.Root = 1
	n9.Children[13] = true
	ctx := newRealCtx(9)
	n9.HandleMessage(ctx, 1, UpdateSibling{Sibling: 13, Add: true})
	v := props.NewView()
	v.Add(9, n9, nil)
	if !PropChildrenSiblingsDisjoint.Check(v) {
		t.Fatal("fixed handler left an inconsistent state")
	}
}

func describe(path []sm.Event) []string {
	out := make([]string, len(path))
	for i, ev := range path {
		out[i] = ev.Describe()
	}
	return out
}

// --- encode/clone round trips ----------------------------------------------

func TestCloneIndependence(t *testing.T) {
	a := mk(1, 0, 1, 2)
	a.Joined = true
	a.Children[2] = true
	b := a.Clone().(*Tree)
	b.Children[3] = true
	delete(b.Children, 2)
	if !a.Children[2] || a.Children[3] {
		t.Fatal("clone shares children map")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := mk(7, FixNewRootChild, 1, 2)
	a.Joined = true
	a.IsRoot = false
	a.Root = 1
	a.Parent = 2
	a.Children[3] = true
	a.Siblings[4] = true
	a.Peers[5] = true
	data := sm.EncodeFullState(a, sm.TimerSet{TimerRecovery})
	factory := New(Config{Bootstrap: []sm.NodeID{1, 2}, Fixes: FixNewRootChild})
	svc, timers, err := sm.DecodeFullState(factory, 7, data)
	if err != nil {
		t.Fatal(err)
	}
	b := svc.(*Tree)
	if b.Root != 1 || b.Parent != 2 || !b.Children[3] || !b.Siblings[4] || !b.Peers[5] || !b.Joined {
		t.Fatalf("round trip lost state: %+v", b)
	}
	if !timers.Has(TimerRecovery) {
		t.Fatal("timer set lost")
	}
	if !bytes.Equal(sm.EncodeService(a), sm.EncodeService(b)) {
		t.Fatal("hash mismatch after round trip")
	}
}
