package bulletprime

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"crystalball/internal/props"
	crt "crystalball/internal/runtime"
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

// Read helpers: the state as the six maps of earlier revisions showed it.

// has reports whether b holds blk.
func has(b *Bullet, blk int) bool { return b.have().has(blk) }

// setOf returns the blocks of set k of peer id, ascending, and whether the
// peer has that set at all.
func setOf(b *Bullet, id sm.NodeID, k int) ([]int, bool) {
	i, ok := b.find(id)
	if !ok || b.table[i].present&(1<<k) == 0 {
		return nil, false
	}
	return b.set(i, k).appendTo([]int{}), true
}

func shadowOf(b *Bullet, id sm.NodeID) []int     { s, _ := setOf(b, id, shadowSet); return s }
func advertisedOf(b *Bullet, id sm.NodeID) []int { s, _ := setOf(b, id, advertisedSet); return s }
func fileMapOf(b *Bullet, id sm.NodeID) []int    { s, _ := setOf(b, id, fileMapSet); return s }

// outstandingOf returns the unacked count toward id (0 when there is none).
func outstandingOf(b *Bullet, id sm.NodeID) int {
	if i, ok := b.find(id); ok {
		return b.table[i].outstanding
	}
	return 0
}

// ttlOf returns the ticks left on the request for blk (0 when there is none).
func ttlOf(b *Bullet, blk int) int {
	if i, ok := b.findRequest(blk); ok {
		return b.requested[i].ttl
	}
	return 0
}

// Write helpers, for arranging a state a test starts from.

// put makes set k of peer id present and adds blks to it.
func put(b *Bullet, id sm.NodeID, k int, blks ...int) {
	i := b.entry(id)
	b.table[i].present |= 1 << k
	for _, blk := range blks {
		b.set(i, k).add(blk)
	}
	b.remesh()
}

// setOutstanding makes id's unacked count present with value n.
func setOutstanding(b *Bullet, id sm.NodeID, n int) {
	i := b.entry(id)
	b.table[i].present |= hasOutstanding
	b.table[i].outstanding = n
}

// setRequest records a request for blk with ttl ticks left.
func setRequest(b *Bullet, blk, ttl int) {
	i, ok := b.findRequest(blk)
	if !ok {
		b.requested = slices.Insert(b.requested, i, request{block: blk})
	}
	b.requested[i].ttl = ttl
}

// sendDiffTo runs the diff path for peer id.
func sendDiffTo(b *Bullet, ctx sm.Context, id sm.NodeID) {
	i, _ := b.find(id)
	b.sendDiff(ctx, i)
}

var allEight = []int{0, 1, 2, 3, 4, 5, 6, 7}

func TestBug1ShadowClearedOnRefusedEnqueue(t *testing.T) {
	cfg := mkCfg(0, 1, 2)
	src := New(cfg)(1).(*Bullet) // source holds all 8 blocks
	src.addPeer(2)
	put(src, 2, shadowSet, allEight...) // everything pending
	setOutstanding(src, 2, cfg.Window)  // transport queue full
	ctx := newCtx(1)
	sendDiffTo(src, ctx, 2)
	if len(ctx.Sends) != 0 {
		t.Fatal("refused enqueue must not transmit")
	}
	if len(shadowOf(src, 2)) != 0 {
		t.Fatal("buggy path should have cleared the shadow map")
	}
	v := props.NewView()
	v.Add(1, src, nil)
	if PropFileMapConsistency.Check(v) {
		t.Fatal("property should be violated: blocks will never be advertised")
	}

	fixedSrc := New(mkCfg(FixShadowOnRefusal, 1, 2))(1).(*Bullet)
	fixedSrc.addPeer(2)
	put(fixedSrc, 2, shadowSet, allEight...)
	setOutstanding(fixedSrc, 2, cfg.Window)
	sendDiffTo(fixedSrc, newCtx(1), 2)
	if len(shadowOf(fixedSrc, 2)) != 8 {
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
	put(src, 2, shadowSet, allEight...)
	setOutstanding(src, 2, cfg.Window)
	ctx := newCtx(1)
	sendDiffTo(src, ctx, 2) // refused
	setOutstanding(src, 2, 0)
	sendDiffTo(src, ctx, 2) // retried
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
	if s, peered := setOf(src, 2, shadowSet); !peered || len(s) != 0 {
		t.Fatal("buggy peering should start with an empty shadow map")
	}
	v := props.NewView()
	v.Add(1, src, nil)
	if PropFileMapConsistency.Check(v) {
		t.Fatal("property should be violated: held blocks never advertised")
	}

	fixedSrc := New(mkCfg(FixShadowOnPeering, 1, 2))(1).(*Bullet)
	fixedSrc.HandleMessage(newCtx(1), 2, Peering{})
	if len(shadowOf(fixedSrc, 2)) != 8 {
		t.Fatalf("fixed peering should seed the shadow with all held blocks, got %d", len(shadowOf(fixedSrc, 2)))
	}
}

func TestBug3StaleFileMapAcrossError(t *testing.T) {
	r := New(mkCfg(0, 1, 2))(2).(*Bullet)
	r.addPeer(1)
	put(r, 1, fileMapSet, 3)
	ctx := newCtx(2)
	r.HandleTransportError(ctx, 1)
	if len(fileMapOf(r, 1)) == 0 {
		t.Fatal("buggy error handler should keep the stale file map")
	}
	if _, peered := setOf(r, 1, shadowSet); peered || len(r.Neighbors()) != 0 {
		t.Fatal("the peering itself must be gone")
	}
	// The phantom shows once the sender is reborn without the block.
	freshSender := New(mkCfg(0, 1, 2))(1).(*Bullet)
	clear(freshSender.have())
	v := props.NewView()
	v.Add(1, freshSender, nil)
	v.Add(2, r, nil)
	if PropNoPhantomBlocks.Check(v) {
		t.Fatal("phantom-block property should be violated")
	}

	f := New(mkCfg(FixStaleFileMap, 1, 2))(2).(*Bullet)
	f.addPeer(1)
	put(f, 1, fileMapSet, 3)
	f.HandleTransportError(newCtx(2), 1)
	if _, present := setOf(f, 1, fileMapSet); present || len(f.table) != 0 {
		t.Fatal("fixed error handler should clear the stale file map")
	}
}

// deployBullet brings up a fully fixed Bullet′ swarm.
func deployBullet(t *testing.T, seed int64, n, blocks int, fixes Fix) (*sim.Simulator, []*crt.Node) {
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
	nodes := make([]*crt.Node, n)
	for i, id := range ids {
		nodes[i] = crt.NewNode(s, net, id, factory)
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
	cfg.MaxOutstandingRequests = 1 // force a single choice
	b := New(cfg)(3).(*Bullet)
	b.addPeer(1)
	b.addPeer(2)
	// Block 0 is held by both senders; block 1 only by sender 1.
	put(b, 1, fileMapSet, 0, 1)
	put(b, 2, fileMapSet, 0)
	ctx := newCtx(3)
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
	put(b, 2, shadowSet, 5)
	put(b, 2, advertisedSet, 1)
	put(b, 3, fileMapSet, 2)
	setOutstanding(b, 2, 3)
	setRequest(b, 4, 2)
	b.Complete = true
	data := sm.EncodeFullState(b, sm.TimerSet{TimerDiff})
	svc, timers, err := sm.DecodeFullState(New(cfg), 1, data)
	if err != nil {
		t.Fatal(err)
	}
	q := svc.(*Bullet)
	if !bytes.Equal(sm.EncodeService(b), sm.EncodeService(q)) {
		t.Fatal("hash mismatch after round trip")
	}
	if !slices.Equal(shadowOf(q, 2), []int{5}) || !slices.Equal(advertisedOf(q, 2), []int{1}) || !slices.Equal(fileMapOf(q, 3), []int{2}) ||
		outstandingOf(q, 2) != 3 || ttlOf(q, 4) != 2 || !q.Complete || !slices.Equal(q.Neighbors(), []sm.NodeID{2}) {
		t.Fatalf("state lost in round trip: %+v", q)
	}
	if !timers.Has(TimerDiff) {
		t.Fatal("timers lost")
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New(mkCfg(0, 1, 2))(1).(*Bullet)
	b.addPeer(2)
	put(b, 2, shadowSet, 1)
	setOutstanding(b, 2, 1)
	setRequest(b, 3, 2)
	before := sm.EncodeService(b)
	cp := b.Clone().(*Bullet)
	put(cp, 2, shadowSet, 6)
	cp.have()[0] &^= 1 // drop block 0
	setOutstanding(cp, 2, 0)
	setRequest(cp, 3, 1)
	cp.HandleTransportError(newCtx(1), 2)
	if slices.Contains(shadowOf(b, 2), 6) || !has(b, 0) || outstandingOf(b, 2) != 1 || ttlOf(b, 3) != 2 ||
		!slices.Equal(b.Neighbors(), []sm.NodeID{2}) || !slices.Equal(sm.EncodeService(b), before) {
		t.Fatal("clone shares state")
	}
}

type ids = map[sm.NodeID][]int

// shape declares a Bullet state map by map, as the six maps of the parent
// commit held it: a key with an empty list is a present-but-empty set.
type shape struct {
	name        string
	self        sm.NodeID
	blocks      int
	have        []int
	shadow      ids
	advertised  ids
	fileMaps    ids
	outstanding map[sm.NodeID]int
	requested   map[int]int
	complete    bool
	// want is EncodeState of the shape, in hex, as the parent commit — six
	// maps, sorted at encode time — wrote it.
	want string
}

var shapes = []shape{
	{name: "fresh", want: "0000000200000000000000000000000000000000000000000000000000",
		self: 2, blocks: 8},
	{name: "source", want: "000000010000000800000000000000000000000000000001000000000000000200000000000000030000000000000004000000000000000500000000000000060000000000000007000000000000000000000000000000000000000000",
		self: 1, blocks: 8, have: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	{name: "have populated", want: "0000000200000003000000000000000000000000000000030000000000000007000000000000000000000000000000000000000001",
		self: 2, blocks: 8, have: []int{0, 3, 7}, complete: true},
	{name: "shadow present-empty", want: "00000002000000000000000100000003000000000000000000000000000000000000000000",
		self: 2, blocks: 8, shadow: ids{3: {}}},
	{name: "shadow populated", want: "00000002000000000000000200000001000000000000000300000002000000000000000100000000000000050000000000000000000000000000000000",
		self: 2, blocks: 8, shadow: ids{3: {1, 5}, 1: {}}},
	{name: "advertised present-empty", want: "00000002000000000000000000000001000000010000000000000000000000000000000000",
		self: 2, blocks: 8, advertised: ids{1: {}}},
	{name: "advertised populated", want: "000000020000000000000000000000020000000100000001000000000000000200000003000000020000000000000000000000000000000700000000000000000000000000",
		self: 2, blocks: 8, advertised: ids{1: {2}, 3: {0, 7}}},
	{name: "file map present-empty", want: "00000002000000000000000000000000000000010000000300000000000000000000000000",
		self: 2, blocks: 8, fileMaps: ids{3: {}}},
	{name: "file map outliving its peering", want: "000000020000000000000000000000000000000100000001000000010000000000000004000000000000000000",
		self: 2, blocks: 8, fileMaps: ids{1: {4}}},
	{name: "outstanding present-zero", want: "0000000200000000000000000000000000000000000000010000000300000000000000000000000000",
		self: 2, blocks: 8, outstanding: map[sm.NodeID]int{3: 0}},
	{name: "outstanding populated", want: "0000000200000000000000000000000000000000000000020000000100000000000000020000000300000000000000000000000000",
		self: 2, blocks: 8, outstanding: map[sm.NodeID]int{1: 2, 3: 0}},
	{name: "requested present-zero", want: "000000020000000000000000000000000000000000000000000000010000000000000006000000000000000000",
		self: 2, blocks: 8, requested: map[int]int{6: 0}},
	{name: "requested populated", want: "00000002000000000000000000000000000000000000000000000002000000000000000200000000000000010000000000000005000000000000000400",
		self: 2, blocks: 8, requested: map[int]int{5: 4, 2: 1}},
	{name: "peered both ways", want: "000000020000000200000000000000010000000000000002000000020000000100000001000000000000000200000003000000000000000200000001000000010000000000000001000000030000000200000000000000010000000000000002000000020000000100000004000000000000000000000000000000010000000000000002000000000000000300000003000000000000000300000001000000000000000100000003000000000000000000000004000000000000000200000002000000000000000000000000000000030000000000000003000000000000000400",
		self: 2, blocks: 8, have: []int{1, 2},
		shadow: ids{1: {2}, 3: {}}, advertised: ids{1: {1}, 3: {1, 2}}, fileMaps: ids{1: {0, 1, 2, 3}, 3: {}},
		outstanding: map[sm.NodeID]int{1: 1, 3: 0, 4: 2}, requested: map[int]int{0: 3, 3: 4}},
	{name: "two words", want: "00000002000000040000000000000000000000000000003f00000000000000400000000000000045000000010000000300000002000000000000003f000000000000004000000001000000030000000100000000000000000000000200000001000000020000000000000005000000000000004100000003000000010000000000000045000000000000000000",
		self: 2, blocks: 70, have: []int{0, 63, 64, 69},
		shadow: ids{3: {63, 64}}, advertised: ids{3: {0}}, fileMaps: ids{3: {69}, 1: {5, 65}}},
}

// build lays sh out in the flat representation.
func (sh shape) build() *Bullet {
	b := New(Config{Members: []sm.NodeID{1, 2, 3, 4}, Source: 9, Blocks: sh.blocks})(sh.self).(*Bullet)
	for _, blk := range sh.have {
		b.have().add(blk)
	}
	for k, m := range []ids{shadowSet: sh.shadow, advertisedSet: sh.advertised, fileMapSet: sh.fileMaps} {
		for id, blks := range m {
			put(b, id, k, blks...)
		}
	}
	for id, n := range sh.outstanding {
		setOutstanding(b, id, n)
	}
	for blk, ttl := range sh.requested {
		setRequest(b, blk, ttl)
	}
	b.Complete = sh.complete
	return b
}

// TestEncodeStateMatchesMapLayout pins the wire form, presence included,
// independently of any search: each of the six former maps absent,
// present-but-empty, present with a zero value and populated encodes to the
// bytes recorded from the map-of-maps representation, and those bytes decode
// back to a state that encodes to them again.
func TestEncodeStateMatchesMapLayout(t *testing.T) {
	for _, sh := range shapes {
		b := sh.build()
		want, err := hex.DecodeString(sh.want)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: no recorded encoding (%v)", sh.name, err)
		}
		if got := sm.EncodeService(b); !slices.Equal(got, want) {
			t.Errorf("%s: encodes to\n%x, the map layout wrote\n%x", sh.name, got, want)
		}
		q := New(*b.cfg)(sh.self).(*Bullet)
		if err := q.DecodeState(sm.NewDecoder(want)); err != nil {
			t.Errorf("%s: recorded encoding does not decode: %v", sh.name, err)
		} else if got := sm.EncodeService(q); !slices.Equal(got, want) {
			t.Errorf("%s: decodes and re-encodes to\n%x, want\n%x", sh.name, got, want)
		}
		if got := sm.EncodeService(b.Clone()); !slices.Equal(got, want) {
			t.Errorf("%s: the clone encodes to %x", sh.name, got)
		}
	}
}

// TestDecodeStateRefusesUnrepresentable: a block id has a range and a table
// one entry per peer, so bytes that name a block outside the file, a peer
// twice in one list or a block twice among the requests are a decode error;
// entries out of order are merely sorted.
func TestDecodeStateRefusesUnrepresentable(t *testing.T) {
	cfg := Config{Members: []sm.NodeID{1, 2, 3}, Source: 9, Blocks: 8}
	decode := func(write func(e *sm.Encoder)) (*Bullet, error) {
		e := sm.NewEncoder()
		write(e)
		b := New(cfg)(2).(*Bullet)
		return b, b.DecodeState(sm.NewDecoder(e.Bytes()))
	}
	// lists writes a state whose have set is have, whose three peer lists
	// are peers (each with the one-block set {blk}), then no outstanding
	// counts, the given requests and Complete = false.
	lists := func(have []int, peers []sm.NodeID, blk int, requests ...int) func(*sm.Encoder) {
		return func(e *sm.Encoder) {
			e.NodeID(2)
			e.Uint32(uint32(len(have)))
			for _, h := range have {
				e.Int(h)
			}
			for k := 0; k < setsPerPeer; k++ {
				e.Uint32(uint32(len(peers)))
				for _, id := range peers {
					e.NodeID(id)
					e.Uint32(1)
					e.Int(blk)
				}
			}
			e.Uint32(0)
			e.Uint32(uint32(len(requests)))
			for _, r := range requests {
				e.Int(r)
				e.Int(requestTTL)
			}
			e.Bool(false)
		}
	}
	b, err := decode(lists([]int{7, 0, 7}, []sm.NodeID{3, 1}, 4, 6, 2))
	if err != nil {
		t.Fatalf("an unsorted state with a repeated block in a set does not decode: %v", err)
	}
	if !has(b, 0) || !has(b, 7) || b.Progress() != 2 || !slices.Equal(b.Neighbors(), []sm.NodeID{1, 3}) ||
		!slices.Equal(fileMapOf(b, 3), []int{4}) || ttlOf(b, 2) != requestTTL || b.requested[0].block != 2 {
		t.Fatalf("unsorted state decoded as %+v", b)
	}
	for name, write := range map[string]func(*sm.Encoder){
		"have block past the file":     lists([]int{8}, nil, 0),
		"negative have block":          lists([]int{-1}, nil, 0),
		"peer set block past the file": lists(nil, []sm.NodeID{1}, 64),
		"peer listed twice":            lists(nil, []sm.NodeID{1, 3, 1}, 0),
		"request past the file":        lists(nil, nil, 0, 9),
		"request repeated":             lists(nil, nil, 0, 3, 3),
	} {
		if _, err := decode(write); err == nil || !strings.Contains(err.Error(), "bulletprime: decode") {
			t.Errorf("%s: decoded with error %v, want a bulletprime decode error", name, err)
		}
	}
}

// TestHandlersIgnoreOutOfRangeBlocks: a block id from the wire that no set
// can hold changes nothing but the acknowledgement it is still owed.
func TestHandlersIgnoreOutOfRangeBlocks(t *testing.T) {
	b := New(mkCfg(0, 1, 2))(1).(*Bullet)
	b.addPeer(2)
	before := sm.EncodeService(b)
	ctx := newCtx(1)
	for _, blk := range []int{-1, 8, 64, 1 << 40} {
		b.HandleMessage(ctx, 2, Request{Block: blk})
		b.HandleMessage(ctx, 2, Data{Block: blk})
		b.HandleMessage(ctx, 2, Diff{Blocks: []int{blk}})
	}
	if !slices.Equal(sm.EncodeService(b), before) {
		t.Fatal("an out-of-range block changed the state")
	}
	for _, s := range ctx.Sends {
		if _, ok := s.Msg.(Ack); !ok {
			t.Fatalf("out-of-range block answered with %T, want only acks", s.Msg)
		}
	}
	if len(ctx.Sends) != 8 {
		t.Fatalf("%d acks for 4 Data and 4 Diff messages, want 8", len(ctx.Sends))
	}
}

var (
	cloneSink sm.Service
	nbrSink   []sm.NodeID
)

// TestBulletCloneAndEncodeAllocBound: what the checker does to a node state
// once per transition. On a state a swarm has warmed up (peers on both
// sides, diffs advertised, requests and unacked messages outstanding) a
// clone is the struct and its three slices, and encoding into a reused
// encoder, listing the neighbors and checking the properties over a reused
// view allocate nothing. A map, a per-call sort or a scratch slice anywhere
// in those fails it.
func TestBulletCloneAndEncodeAllocBound(t *testing.T) {
	s, nodes := deployBullet(t, 4, 3, 8, AllFixes)
	var b *Bullet
	for tick := 0; tick < 200 && b == nil; tick++ {
		s.RunFor(250 * time.Millisecond)
		for _, n := range nodes {
			c := n.Service().(*Bullet)
			if len(c.mesh) == 2 && len(c.requested) > 0 && c.Progress() > 0 && !c.Complete {
				b = c.Clone().(*Bullet)
			}
		}
	}
	if b == nil {
		t.Fatal("no node reached a state with two peers, blocks and requests outstanding")
	}
	if size := unsafe.Sizeof(Bullet{}); size > 112 {
		t.Errorf("Bullet is %d bytes, want <= 112", size)
	}
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { cloneSink = b.Clone() })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own.
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1); allocs > 4 || bytes > 320 {
		t.Errorf("Clone allocates %.1f times and %.0f B, want <= 4 and <= 320", allocs, bytes)
	}
	e := sm.NewEncoder()
	b.EncodeState(e) // size the buffer
	if avg := testing.AllocsPerRun(runs, func() { e.Reset(); b.EncodeState(e) }); avg != 0 {
		t.Errorf("EncodeState into a reused encoder allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(runs, func() { nbrSink = b.Neighbors() }); avg != 0 || len(nbrSink) != 2 {
		t.Errorf("Neighbors allocates %.1f/op and lists %v, want 0 and both peers", avg, nbrSink)
	}
	v := props.NewView()
	fill := func() {
		v.Reset()
		for _, n := range nodes {
			v.Add(n.ID, n.Service(), nil)
		}
	}
	fill() // warm the view's storage
	if avg := testing.AllocsPerRun(runs, func() {
		fill()
		if DebugProperties.Check(v) != nil {
			t.Fatal("fixed swarm violates a property")
		}
	}); avg != 0 {
		t.Errorf("a property check over a reused view allocates %.1f/op, want 0", avg)
	}
}
