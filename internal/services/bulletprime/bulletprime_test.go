package bulletprime

import (
	"math/rand"
	"testing"
	"time"

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

func mkCfg(fixes Fix, members ...sm.NodeID) Config {
	return Config{
		Members:   members,
		Source:    members[0],
		Blocks:    8,
		BlockSize: 1024,
		Window:    2,
		Fixes:     fixes,
	}
}

func TestBug1ShadowClearedOnRefusedEnqueue(t *testing.T) {
	cfg := mkCfg(0, 1, 2)
	src := New(cfg)(1).(*Bullet) // source holds all 8 blocks
	src.addPeer(2)
	src.Shadow[2] = cloneIntSet(src.Have) // everything pending
	src.Outstanding[2] = cfg.Window       // transport queue full
	ctx := newCtx(1)
	src.sendDiff(ctx, 2)
	if len(ctx.Sends) != 0 {
		t.Fatal("refused enqueue must not transmit")
	}
	if len(src.Shadow[2]) != 0 {
		t.Fatal("buggy path should have cleared the shadow map")
	}
	v := props.NewView()
	v.Add(1, src, nil)
	if PropFileMapConsistency.Check(v) {
		t.Fatal("property should be violated: blocks will never be advertised")
	}

	fixedSrc := New(mkCfg(FixShadowOnRefusal, 1, 2))(1).(*Bullet)
	fixedSrc.addPeer(2)
	fixedSrc.Shadow[2] = cloneIntSet(fixedSrc.Have)
	fixedSrc.Outstanding[2] = cfg.Window
	fixedSrc.sendDiff(newCtx(1), 2)
	if len(fixedSrc.Shadow[2]) != 8 {
		t.Fatal("fixed path must keep the shadow map for a later retry")
	}
	v2 := props.NewView()
	v2.Add(1, fixedSrc, nil)
	if !PropFileMapConsistency.Check(v2) {
		t.Fatal("fixed path should satisfy the property")
	}
}

func TestBug1RetrySucceedsAfterFix(t *testing.T) {
	cfg := mkCfg(FixShadowOnRefusal, 1, 2)
	src := New(cfg)(1).(*Bullet)
	src.addPeer(2)
	src.Shadow[2] = cloneIntSet(src.Have)
	src.Outstanding[2] = cfg.Window
	ctx := newCtx(1)
	src.sendDiff(ctx, 2) // refused
	src.Outstanding[2] = 0
	src.sendDiff(ctx, 2) // retried
	if len(ctx.Sends) != 1 {
		t.Fatalf("retry should transmit exactly one diff, got %d", len(ctx.Sends))
	}
	diff := ctx.Sends[0].Msg.(Diff)
	if len(diff.Blocks) != 8 {
		t.Fatalf("diff lost blocks: %v", diff.Blocks)
	}
}

func TestBug2EmptyShadowOnPeering(t *testing.T) {
	src := New(mkCfg(0, 1, 2))(1).(*Bullet)
	ctx := newCtx(1)
	src.HandleMessage(ctx, 2, Peering{})
	if len(src.Shadow[2]) != 0 {
		t.Fatal("buggy peering should start with an empty shadow map")
	}
	v := props.NewView()
	v.Add(1, src, nil)
	if PropFileMapConsistency.Check(v) {
		t.Fatal("property should be violated: held blocks never advertised")
	}

	fixedSrc := New(mkCfg(FixShadowOnPeering, 1, 2))(1).(*Bullet)
	fixedSrc.HandleMessage(newCtx(1), 2, Peering{})
	if len(fixedSrc.Shadow[2]) != 8 {
		t.Fatalf("fixed peering should seed the shadow with all held blocks, got %d", len(fixedSrc.Shadow[2]))
	}
}

func TestBug3StaleFileMapAcrossError(t *testing.T) {
	r := New(mkCfg(0, 1, 2))(2).(*Bullet)
	r.addPeer(1)
	r.FileMaps[1][3] = true
	ctx := newCtx(2)
	r.HandleTransportError(ctx, 1)
	if len(r.FileMaps[1]) == 0 {
		t.Fatal("buggy error handler should keep the stale file map")
	}
	// The phantom shows once the sender is reborn without the block.
	freshSender := New(mkCfg(0, 1, 2))(1).(*Bullet)
	freshSender.Have = map[int]bool{}
	v := props.NewView()
	v.Add(1, freshSender, nil)
	v.Add(2, r, nil)
	if PropNoPhantomBlocks.Check(v) {
		t.Fatal("phantom-block property should be violated")
	}

	f := New(mkCfg(FixStaleFileMap, 1, 2))(2).(*Bullet)
	f.addPeer(1)
	f.FileMaps[1][3] = true
	f.HandleTransportError(newCtx(2), 1)
	if len(f.FileMaps[1]) != 0 {
		t.Fatal("fixed error handler should clear the stale file map")
	}
}

// deployBullet brings up a fully fixed Bullet′ swarm.
func deployBullet(t *testing.T, seed int64, n, blocks int, fixes Fix) (*sim.Simulator, []*runtime.Node) {
	t.Helper()
	s := sim.New(seed)
	net := simnet.New(s, simnet.UniformPath{Latency: 10 * time.Millisecond, BwBps: 1e8})
	ids := make([]sm.NodeID, n)
	for i := range ids {
		ids[i] = sm.NodeID(i + 1)
	}
	cfg := Config{
		Members:   ids,
		Source:    1,
		Blocks:    blocks,
		BlockSize: 16 << 10,
		Fixes:     fixes,
	}
	factory := New(cfg)
	nodes := make([]*runtime.Node, n)
	for i, id := range ids {
		nodes[i] = runtime.NewNode(s, net, id, factory)
	}
	return s, nodes
}

func TestSwarmCompletesDownload(t *testing.T) {
	s, nodes := deployBullet(t, 1, 6, 16, AllFixes)
	deadline := 300 * time.Second
	s.RunFor(deadline)
	for _, node := range nodes {
		b := node.Service().(*Bullet)
		if !b.Complete && b.Self != 1 {
			t.Fatalf("node %v incomplete: %d/%d blocks", b.Self, b.Progress(), 16)
		}
	}
}

func TestBuggySwarmStallsWithoutFixes(t *testing.T) {
	// With bug 2 present (empty shadow on peering) the source never
	// advertises its pre-existing blocks, so no one can download
	// anything: the swarm stalls completely.
	s, nodes := deployBullet(t, 2, 4, 16, 0)
	s.RunFor(120 * time.Second)
	for _, node := range nodes {
		b := node.Service().(*Bullet)
		if b.Self == 1 {
			continue
		}
		if b.Progress() != 0 {
			t.Fatalf("node %v somehow got %d blocks despite the bug", b.Self, b.Progress())
		}
	}
}

func TestLiveSwarmSatisfiesSenderProperty(t *testing.T) {
	s, nodes := deployBullet(t, 3, 5, 12, AllFixes)
	for i := 0; i < 60; i++ {
		s.RunFor(2 * time.Second)
		v := props.NewView()
		for _, node := range nodes {
			svc, timers := node.View()
			v.Add(node.ID, svc, timers)
		}
		if violated := Properties.Check(v); len(violated) > 0 {
			t.Fatalf("fixed swarm violated %v at poll %d", violated, i)
		}
	}
}

func TestRarestRandomPrefersRareBlocks(t *testing.T) {
	cfg := mkCfg(AllFixes, 1, 2, 3)
	b := New(cfg)(3).(*Bullet)
	b.addPeer(1)
	b.addPeer(2)
	// Block 0 is held by both senders; block 1 only by sender 1.
	b.FileMaps[1][0] = true
	b.FileMaps[2][0] = true
	b.FileMaps[1][1] = true
	ctx := newCtx(3)
	b.cfg.MaxOutstandingRequests = 1 // force a single choice
	b.issueRequests(ctx)
	if len(ctx.Sends) != 1 {
		t.Fatalf("sends = %d, want 1", len(ctx.Sends))
	}
	req := ctx.Sends[0].Msg.(Request)
	if req.Block != 1 {
		t.Fatalf("requested block %d, want the rarer block 1", req.Block)
	}
	if ctx.Sends[0].To != 1 {
		t.Fatalf("requested from %v, want the only holder 1", ctx.Sends[0].To)
	}
}

func TestWindowLimitsOutstandingData(t *testing.T) {
	cfg := mkCfg(AllFixes, 1, 2)
	src := New(cfg)(1).(*Bullet)
	src.addPeer(2)
	ctx := newCtx(1)
	for i := 0; i < 5; i++ {
		src.HandleMessage(ctx, 2, Request{Block: i})
	}
	dataCount := 0
	for _, s := range ctx.Sends {
		if _, ok := s.Msg.(Data); ok {
			dataCount++
		}
	}
	if dataCount != cfg.Window {
		t.Fatalf("data messages = %d, want window %d", dataCount, cfg.Window)
	}
	// Acks drain the queue and allow more.
	src.HandleMessage(ctx, 2, Ack{})
	src.HandleMessage(ctx, 2, Request{Block: 7})
	last := ctx.Sends[len(ctx.Sends)-1]
	if _, ok := last.Msg.(Data); !ok {
		t.Fatal("ack did not free a queue slot")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := mkCfg(FixShadowOnRefusal, 1, 2, 3)
	b := New(cfg)(1).(*Bullet)
	b.addPeer(2)
	b.Shadow[2][5] = true
	b.Advertised[2][1] = true
	b.FileMaps[3] = map[int]bool{2: true}
	b.Outstanding[2] = 3
	b.Requested[4] = 2
	b.Complete = true
	data := sm.EncodeFullState(b, sm.TimerSet{TimerDiff})
	svc, timers, err := sm.DecodeFullState(New(cfg), 1, data)
	if err != nil {
		t.Fatal(err)
	}
	q := svc.(*Bullet)
	if sm.HashService(b) != sm.HashService(q) {
		t.Fatal("hash mismatch after round trip")
	}
	if !q.Shadow[2][5] || !q.Advertised[2][1] || !q.FileMaps[3][2] || q.Outstanding[2] != 3 || q.Requested[4] != 2 || !q.Complete {
		t.Fatalf("state lost in round trip: %+v", q)
	}
	if !timers.Has(TimerDiff) {
		t.Fatal("timers lost")
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New(mkCfg(0, 1, 2))(1).(*Bullet)
	b.addPeer(2)
	b.Shadow[2][1] = true
	cp := b.Clone().(*Bullet)
	cp.Shadow[2][9] = true
	delete(cp.Have, 0)
	if b.Shadow[2][9] || !b.Have[0] {
		t.Fatal("clone shares state")
	}
}
