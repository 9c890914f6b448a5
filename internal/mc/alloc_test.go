package mc

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Allocation-regression tests for the checker's per-explored-state path.
// The hot path is designed around reused scratch (pooled encoders, worker
// views, enumeration buffers), so these bounds are part of the contract:
// a change that quietly reintroduces per-state allocation fails here long
// before it shows up in a profile.

// TestHashLookupZeroAllocs: Hash on a constructed state is a pure read.
func TestHashLookupZeroAllocs(t *testing.T) {
	g := multiTimerStart()
	if avg := testing.AllocsPerRun(1000, func() {
		if g.Hash() == 0 {
			t.Fatal("zero hash")
		}
	}); avg != 0 {
		t.Fatalf("Hash lookup allocates %.2f/op, want 0", avg)
	}
}

// TestReusedViewCheckZeroAllocs: refilling a reused view and evaluating a
// non-violated property set allocates nothing in steady state.
func TestReusedViewCheckZeroAllocs(t *testing.T) {
	g := multiTimerStart()
	ps := poisonAt(1000) // clean state: Check returns nil, no result slice
	v := props.NewView()
	g.FillView(v) // warm the view's storage
	if got := ps.Check(v); got != nil {
		t.Fatalf("state unexpectedly violates %v", got)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		g.FillView(v)
		if ps.Check(v) != nil {
			t.Fatal("unexpected violation")
		}
	}); avg != 0 {
		t.Fatalf("reused-view property check allocates %.2f/op, want 0", avg)
	}
}

// TestEnabledEventsReusedBufferAllocBound: enumeration through a reused
// eventBuf boxes nothing — an event is a key and a payload, by value — so
// once the buffers are warm it allocates nothing at all; and the count-only
// mode, which the consequence rule runs on every (node, local state) it has
// already claimed, reports the same number of internal actions without
// building even the keys. Every kind is enumerated, and an enumerated app
// call carries its EncodeCall fingerprint: the key that tells it from a
// same-named call.
func TestEnabledEventsReusedBufferAllocBound(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy, ExploreResets: true})
	g := multiTimerStart()
	var buf eventBuf
	enc := sm.NewEncoder()
	var network, internal int
	enumerate := func() {
		network, internal = len(s.networkInto(g, &buf)), 0
		for i := range g.nodes {
			evs, _ := s.internalInto(g, i, &buf, enc)
			internal += len(evs)
		}
	}
	enumerate() // warm + count
	if network == 0 || internal == 0 {
		t.Fatalf("%d network and %d internal events enumerated, want some of each", network, internal)
	}
	if avg := testing.AllocsPerRun(1000, enumerate); avg != 0 {
		t.Fatalf("reused-buffer enumeration allocates %.2f/op for %d events, want 0: is an event boxed?", avg, network+internal)
	}
	counted := 0
	count := func() {
		counted = 0
		for i := range g.nodes {
			n, _ := s.internalAt(g, i, nil, nil)
			counted += n
		}
	}
	if count(); counted != internal {
		t.Fatalf("count-only mode reports %d internal actions, enumeration lists %d", counted, internal)
	}
	if avg := testing.AllocsPerRun(1000, count); avg != 0 {
		t.Fatalf("count-only enumeration allocates %.2f/op, want 0", avg)
	}

	// All six kinds: an RST in flight gives the error and the drop, conn
	// breaks give the spontaneous error.
	s = NewSearch(Config{Props: poisonAt(1000), Factory: newToy, ExploreResets: true, ExploreConnBreaks: true})
	g = multiTimerStart()
	g.AddMessage(2, 1, nil) // an RST
	kinds := map[byte]bool{}
	keyed := func(evs []sm.Event) {
		t.Helper()
		for _, ev := range evs {
			kinds[ev.Kind] = true
			if ev.Kind == 'A' && ev.Arg != sm.AppInvocation(ev.Node, ev.Call, sm.NewEncoder()).Arg {
				t.Fatalf("enumerated app call %+v does not carry its call's fingerprint", ev.EventKey)
			}
		}
	}
	keyed(s.networkInto(g, &buf))
	for i := range g.nodes {
		evs, _ := s.internalInto(g, i, &buf, enc)
		keyed(evs)
	}
	if len(kinds) != 6 {
		t.Fatalf("enumerated kinds %v, want all six", kinds)
	}
}

// TestSuccessorAllocBound bounds the full cost of one published successor:
// built in the scratch, hashed, and published. The remaining allocations are
// the successor's own storage (the GState, its node container and the
// executed node's NodeState, the service clone) — the transient workspace
// (encoders, handler context with its working timer set, random stream, hash
// state, the successor under construction) is the scratch's and must not
// count, and neither does the node's encoding: finalize hashes it in the
// scratch and keeps its length. The service clone is the scratch's spare,
// which publish hands to the successor, so each build clones into a fresh
// one: a published successor still pays for its clone exactly once. The
// scratch is the test's own, so the counts are exact under -race too.
//
// A timer event neither consumes nor sends, so the successor shares its
// parent's in-flight container; "tick" bumps the counter and re-arms itself,
// which leaves the timer set equal to the parent's: 7 allocations (8 while a
// NodeState kept a copy of its service encoding, 11 while the set was a map
// cloned per handler run, ~30 before the scratch). "idle" only re-arms and
// "zap" only expires, so the two differ in nothing but the timer set: a
// changed set costs exactly publish's exact-size copy, an equal one nothing.
// TestSuccessorSendAllocBound pins the in-flight items, and
// TestUnbuiltSuccessorAllocBound what a successor costs that is never
// published. A GState stays in the 96-byte size class.
var cloneSink *GState

func TestSuccessorAllocBound(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	g := multiTimerStart()
	g.AddNode(1, g.Node(1).Svc, sm.NewTimerSet("tick", "tock", "boom", "zap", "idle"))
	sc := getScratch()
	defer putScratch(sc)
	allocs := func(timer sm.TimerID) float64 {
		ev := sm.TimerFiring(1, timer)
		return testing.AllocsPerRun(500, func() {
			if cloneSink = s.applyEvent(g, &ev, true, sc); cloneSink == nil {
				t.Fatalf("timer %q not applicable", timer)
			}
		})
	}
	if size := unsafe.Sizeof(GState{}); size > 96 {
		t.Errorf("GState is %d bytes, want <= 96 (the size class below 112)", size)
	}
	// An item carries its type tag in the room its narrowed position and
	// size left: a block of sent items stays 48 bytes an item.
	if size := unsafe.Sizeof(InFlight{}); size > 48 {
		t.Errorf("InFlight is %d bytes, want <= 48", size)
	}
	const maxAllocs = 7
	if tick := allocs("tick"); tick > maxAllocs {
		t.Errorf("successor construction allocates %.1f/op, want <= %d", tick, maxAllocs)
	}
	if idle, zap := allocs("idle"), allocs("zap"); zap != idle+1 {
		t.Errorf("a successor with a changed timer set allocates %.1f/op and one with an equal set %.1f/op, want exactly one apart (the set)", zap, idle)
	}
}

// TestFinalizeAllocBound: freezing a node state is one encoding pass into
// the scratch and two hashes streamed from it. Nothing of the encoding is
// kept and the timer set is kept as given — publish, not finalize, gives a
// changed set its copy (TestSuccessorAllocBound) — so finalize allocates
// nothing, and a NodeState stays in the 64-byte class: two words of service,
// three of timer set, the id with the encoding's length, and the two hashes.
func TestFinalizeAllocBound(t *testing.T) {
	if size := unsafe.Sizeof(NodeState{}); size > 64 {
		t.Errorf("NodeState is %d bytes, want <= 64", size)
	}
	g := multiTimerStart()
	parent := g.Node(1)
	sc := getScratch()
	defer putScratch(sc)
	ns := &NodeState{Svc: parent.Svc}
	ns.finalize(1, parent.Timers, sc) // size the scratch encoder
	if ns.chash != parent.chash || ns.lhash != parent.lhash || ns.encLen != parent.encLen {
		t.Fatal("finalizing the same service and timers again gave another hash or length")
	}
	same := slices.Clone(parent.Timers) // equal to the parent's, not the parent's
	changed := sm.NewTimerSet(append(same, "extra")...)
	for name, timers := range map[string]sm.TimerSet{"the parent's timer set": same, "a changed timer set": changed} {
		if avg := testing.AllocsPerRun(500, func() { ns.finalize(1, timers, sc) }); avg != 0 {
			t.Errorf("finalize with %s allocates %.1f/op, want 0", name, avg)
		}
	}
}

// successorWithSends measures one pool-free successor construction (the
// scratch is the test's own, so the counts are exact under -race too): node 1
// kicks, sending one Ping to each of its peers, from a state that carries
// inherited in-flight items, each in a queue of its own. It returns the
// allocations and the bytes of one construction.
func successorWithSends(t *testing.T, peers, inherited int) (allocs, bytes float64) {
	t.Helper()
	g := NewGState()
	k := newToy(1).(*toy)
	for p := 2; p < 2+peers; p++ {
		k.peers[sm.NodeID(p)] = true
		g.AddNode(sm.NodeID(p), newToy(sm.NodeID(p)), nil)
	}
	g.AddNode(1, k, nil)
	for i := 0; i < inherited; i++ {
		g.AddMessage(2, 1, note{K: i})
	}
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	sc := getScratch()
	defer putScratch(sc)
	ev := sm.AppInvocation(1, kick{}, nil)
	build := func() {
		if cloneSink = s.applyEvent(g, &ev, true, sc); cloneSink == nil || len(cloneSink.msgs) != inherited+peers {
			t.Fatal("kick did not send one item per peer")
		}
	}
	build() // warm the scratch
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, build)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// TestSuccessorSendAllocBound: a published successor's new items cost one
// allocation together — publish copies them to the heap as one exact-size
// block — and its inherited items none: they are shared, and publish
// allocates the container that points at them once, at its final size. In
// bytes an inherited item costs its pointer slot; copying item values again
// (48 B each, and a regrown container on top) fails the bound. With one send a
// successor allocates at most TestSuccessorAllocBound's 7 plus two: its own
// in-flight container and the block. (Two more sends cost two allocations
// while each new item was one of its own.)
func TestSuccessorSendAllocBound(t *testing.T) {
	base, baseBytes := successorWithSends(t, 1, 2)
	if base > 7+2 {
		t.Errorf("a successor that sends one item allocates %.1f/op, want <= 9", base)
	}
	if threePeers, _ := successorWithSends(t, 3, 2); threePeers != base {
		t.Errorf("two more sends cost %.1f allocations (%.1f against %.1f), want none: the new items are one block", threePeers-base, threePeers, base)
	}
	const more = 64
	loaded, loadedBytes := successorWithSends(t, 1, 2+more)
	if loaded != base {
		t.Errorf("%d more inherited items cost %.1f allocations (%.1f against %.1f), want none", more, loaded-base, loaded, base)
	}
	if perItem := (loadedBytes - baseBytes) / more; perItem > 12 {
		t.Errorf("an inherited in-flight item costs its successor %.1f B, want its 8-byte slot (allow 12)", perItem)
	}
}

// TestUnbuiltSuccessorAllocBound: a successor whose fingerprint is already
// claimed is built in the worker's scratch, looked up and dropped, and
// allocates nothing once one build has warmed the scratch: no GState, no
// containers, no node state, no in-flight items, and no service — the
// handler ran on the scratch's spare, which the next build refills. The
// toy's Clone does allocate, so the zero is the spare's. Each successor is
// driven the way Engine.expand drives it: the event is enumerated into the
// worker's buffer and handed to apply where it lies, so the measurement
// covers everything a transition costs before its fingerprint is looked up.
// A "tick" leaves the timer set as it was, a "zap" changes it and a "kick"
// sends one item per peer: none of them costs an unbuilt successor anything.
func TestUnbuiltSuccessorAllocBound(t *testing.T) {
	g := NewGState()
	k := newToy(1).(*toy)
	for p := sm.NodeID(2); p <= 4; p++ {
		k.peers[p] = true
		g.AddNode(p, newToy(p), nil)
	}
	g.AddNode(1, k, sm.TimerSet{"tick", "zap"})
	g.AddMessage(2, 1, ping{N: 1}) // a constant type name: enumerating it allocates nothing
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	svc := g.Node(1).Svc
	if clone := testing.AllocsPerRun(500, func() { svcSink = svc.Clone() }); clone == 0 {
		t.Fatal("the toy's Clone allocates nothing: the bound measures nothing")
	}
	for _, ev := range []sm.Event{sm.TimerFiring(1, "tick"), sm.TimerFiring(1, "zap"), sm.AppInvocation(1, kick{}, sm.NewEncoder())} {
		e := s.NewEngine(Budget{Workers: 1}, HashRange{}, nil)
		x := e.xs[0]
		e.Inject(Forward{State: g})
		if _, claimed := e.Inject(Forward{State: s.ApplyEvent(g, ev)}); !claimed {
			t.Fatalf("%s: successor not claimed", ev.Describe())
		}
		// AllocsPerRun's own warm-up call is the build that fills the spare.
		built := 0
		unbuilt := testing.AllocsPerRun(500, func() {
			x.each(g, func(at *sm.Event) bool {
				if at.EventKey != ev.EventKey {
					return true
				}
				next := s.apply(g, at, true, x.sc)
				if publish, propose := e.fate(next.Hash(), 0, x); publish || propose {
					t.Fatalf("%s: a successor claimed at depth 0 is proposed (published: %v)", ev.Describe(), publish)
				}
				built++
				return false
			})
		})
		if built != 501 {
			t.Fatalf("%s: built %d times in 501 runs: not enumerated at the state", ev.Describe(), built)
		}
		if unbuilt != 0 {
			t.Errorf("%s: an unbuilt successor allocates %.1f/op, want 0", ev.Describe(), unbuilt)
		}
	}
}

var svcSink sm.Service

// TestUnpublishedResetAllocatesNothing: a reset restarts its node in the
// worker's spare service — a copy of the node's pristine service, which the
// search's factory built once, when the start state was injected — so a reset
// successor that is a duplicate or a clean leaf allocates nothing once one
// build has warmed the scratch: no service, no GState, no RST item — nothing
// but what the peers' Neighbors allocate, which a reset asks for its RSTs
// (the toy sorts its peer set into a new list per call). The toy's factory
// does allocate, so the zero is the spare's. A duplicate is driven the way
// Engine.expand drives it (see TestUnbuiltSuccessorAllocBound); a clean leaf
// is a reset among the children of a state expanded one step above the depth
// bound, whose other children allocate nothing (TestCleanLeafPublishesNothing).
func TestUnpublishedResetAllocatesNothing(t *testing.T) {
	if fresh := testing.AllocsPerRun(100, func() { svcSink = newToy(1) }); fresh == 0 {
		t.Fatal("the toy's factory allocates nothing: the bound measures nothing")
	}
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy, ExploreResets: true})
	g := multiTimerStart()
	// neighbors is what asking every node but id for its neighbours allocates.
	neighbors := func(id sm.NodeID) float64 {
		return testing.AllocsPerRun(100, func() {
			for _, ns := range g.nodes {
				if ns.id != id {
					_ = ns.Svc.Neighbors()
				}
			}
		})
	}
	all := 0.0
	for _, id := range []sm.NodeID{1, 2} {
		peers := neighbors(id)
		all += peers
		ev := sm.Reset(id)
		e := s.NewEngine(Budget{Workers: 1}, HashRange{}, nil)
		x := e.xs[0]
		e.Inject(Forward{State: g})
		if _, claimed := e.Inject(Forward{State: s.ApplyEvent(g, ev)}); !claimed {
			t.Fatalf("%s: successor not claimed", ev.Describe())
		}
		built := 0
		duplicate := testing.AllocsPerRun(200, func() {
			x.each(g, func(at *sm.Event) bool {
				if at.EventKey != ev.EventKey {
					return true
				}
				next := s.apply(g, at, true, x.sc)
				if publish, propose := e.fate(next.Hash(), 0, x); publish || propose {
					t.Fatalf("%s: a successor claimed at depth 0 is proposed (published: %v)", ev.Describe(), publish)
				}
				built++
				return false
			})
		})
		if built != 201 {
			t.Fatalf("%s: built %d times in 201 runs: not enumerated at the state", ev.Describe(), built)
		}
		if duplicate != peers {
			t.Errorf("%s: a duplicate reset successor allocates %.1f/op, want the %.1f of its peers' Neighbors", ev.Describe(), duplicate, peers)
		}
	}

	e := s.NewEngine(Budget{Depth: 1, Workers: 1}, HashRange{}, nil)
	x := e.xs[0]
	e.Inject(Forward{State: g})
	h := *e.fr.buckets[0].held.at(0)
	leaf := testing.AllocsPerRun(200, func() {
		x.props.reset()
		x.leaves = x.leaves[:0]
		x.proposed.clear()
		e.expand(&h, nil, x)
	})
	resets := 0
	for i := 0; i < x.props.n; i++ {
		if p := x.props.at(i); p.desc.Kind == 'R' {
			if p.state != nil || p.leaf == 0 {
				t.Fatalf("%s: proposed with state %v as leaf %d, want a clean leaf", p.desc, p.state != nil, p.leaf)
			}
			resets++
		}
	}
	if resets != 2 {
		t.Fatalf("%d reset leaves proposed, want one per node", resets)
	}
	if leaf != all {
		t.Errorf("expanding a state into clean leaves, %d of them resets, allocates %.1f/op, want the %.1f of the peers' Neighbors", resets, leaf, all)
	}
}

// TestCleanLeafPublishesNothing: a child at the depth bound that holds every
// property is checked in the scratch it was built in and never published.
// multiTimerStart expanded under Budget.Depth 1 has only leaves for
// children — timers that change the local state or only re-arm, a delivery
// and app calls that send — and once the handler memo is warm (AllocsPerRun's
// warm-up ran every handler once) the whole expansion allocates nothing:
// measured 0 allocations per leaf transition, and 0 is the bound. The same
// expansion under Budget.Depth 2 publishes every child; measured 2.3
// allocations per child (the GState and its node container, and for a child
// whose event sends or consumes an item the in-flight container), which a
// leaf cost as well before leaves were checked where they are built. The
// leaf mark takes what was a proposal's padding: a proposal stays 64 bytes.
// And the claim pass at the bound keeps of each clean leaf its fingerprint,
// in the leaf set, and a count in its bucket: no tree entry and no held
// entry, while Claimed and the states explored count every one.
func TestCleanLeafPublishesNothing(t *testing.T) {
	if size := unsafe.Sizeof(proposal{}); size > 64 {
		t.Errorf("a proposal is %d bytes, want <= 64", size)
	}
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	g := multiTimerStart()
	expand := func(depth int) (allocs float64, props []proposal) {
		e := s.NewEngine(Budget{Depth: depth, Workers: 1}, HashRange{}, nil)
		x := e.xs[0]
		e.Inject(Forward{State: g})
		h := *e.fr.buckets[0].held.at(0)
		allocs = testing.AllocsPerRun(200, func() {
			x.props.reset()
			x.leaves = x.leaves[:0]
			x.proposed.clear()
			e.expand(&h, nil, x)
		})
		for i := 0; i < x.props.n; i++ {
			props = append(props, *x.props.at(i))
		}
		return allocs, props
	}
	leaf, leaves := expand(1)
	inner, children := expand(2)
	if len(leaves) < 8 || len(leaves) != len(children) {
		t.Fatalf("%d leaves and %d children proposed: the input exercises too little", len(leaves), len(children))
	}
	for i := range leaves {
		if leaves[i].state != nil || leaves[i].leaf == 0 || children[i].state == nil || children[i].leaf != 0 {
			t.Fatalf("child %d (%s): a leaf proposed with state %v as leaf %d, an inner child with state %v as leaf %d",
				i, leaves[i].desc, leaves[i].state != nil, leaves[i].leaf, children[i].state != nil, children[i].leaf)
		}
	}
	t.Logf("%d children: %.1f allocations per leaf, %.1f per published child", len(leaves), leaf/float64(len(leaves)), inner/float64(len(children)))
	if leaf != 0 {
		t.Errorf("expanding a state into %d clean leaves allocates %.1f/op, want 0", len(leaves), leaf)
	}
	if inner < 2*float64(len(children)) {
		t.Errorf("publishing %d children allocates %.1f/op, want at least two per child: the bound compares nothing", len(children), inner)
	}

	distinct := map[uint64]bool{}
	for _, p := range leaves {
		distinct[p.hash] = true
	}
	e := s.NewEngine(Budget{Depth: 1, Workers: 1}, HashRange{}, nil)
	e.Inject(Forward{State: g})
	entries, clean := -1, -1
	if err := e.Drain(func() error {
		if b := e.fr.peek(1); b != nil {
			entries, clean = b.held.n, b.clean
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res := e.Result()
	if e.tree.entries.n != 1 || entries != 0 || clean != len(distinct) || e.leafSet.len() != len(distinct) {
		t.Errorf("%d distinct clean leaves claimed into %d tree entries but the root's, %d held entries, a count of %d and %d fingerprints",
			len(distinct), e.tree.entries.n-1, entries, clean, e.leafSet.len())
	}
	if e.Claimed() != 1+len(distinct) || res.StatesExplored != e.Claimed() || res.MaxDepthReached != 1 {
		t.Errorf("%d distinct clean leaves: %d claimed, %d explored to depth %d", len(distinct), e.Claimed(), res.StatesExplored, res.MaxDepthReached)
	}
}

// TestMemoHitAllocBound: a published successor built from a memo hit
// allocates no NodeState, no service and no sent item. The handler runs once,
// in AllocsPerRun's warm-up; every later build installs the memoized node
// state, which the published successor shares, and shares each sent item the
// warm-up published, which the memo holds and which sits at the same queue
// position in every build. So it costs what a pooled build (no memo) costs
// minus the NodeState, the service's clone and the block of sent items. "tick"
// changes the local state, so its effect is memoized when the warm-up
// publishes it; "idle" and "kick" leave it as it was, so the memoized state is
// the parent's own and the effect is memoized before the warm-up publishes
// (kick also sends: that publish records its items in the memo's slots).
func TestMemoHitAllocBound(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	g := multiTimerStart()
	g.AddNode(1, g.Node(1).Svc, sm.NewTimerSet("tick", "tock", "boom", "zap", "idle"))
	clone := testing.AllocsPerRun(500, func() { svcSink = g.Node(1).Svc.Clone() })
	if clone == 0 {
		t.Fatal("the toy's Clone allocates nothing: the bound measures nothing")
	}
	pooled := getScratch()
	defer putScratch(pooled)
	for _, ev := range []sm.Event{sm.TimerFiring(1, "tick"), sm.TimerFiring(1, "idle"), sm.AppInvocation(1, kick{}, sm.NewEncoder())} {
		build := func(sc *scratch) float64 {
			return testing.AllocsPerRun(500, func() {
				if cloneSink = s.applyEvent(g, &ev, true, sc); cloneSink == nil {
					t.Fatalf("%s: not applicable", ev.Describe())
				}
			})
		}
		x := s.NewExpander()
		sends := float64(len(s.ApplyEvent(g, ev).msgs) - len(g.msgs))
		if (ev.Kind == 'A') != (sends > 0) {
			t.Fatalf("%s: sends %.0f items", ev.Describe(), sends)
		}
		want := build(pooled) - 1 - clone - min(sends, 1)
		if hit := build(x.sc); hit != want {
			t.Errorf("%s: a memo hit's published successor allocates %.1f/op, want %.1f: a pooled build's less the NodeState, the service clone and the sent items", ev.Describe(), hit, want)
		}
		if x.sc.runs != 1 {
			t.Errorf("%s: the handler ran %d times in 501 builds, want once", ev.Describe(), x.sc.runs)
		}
		memoized := x.sc.memo.find(g.Node(1).lhash, g.Node(1).chash, 0, &ev.EventKey)
		if memoized == nil || cloneSink.Node(1) != memoized.ns {
			t.Errorf("%s: the published successor does not share the memoized node state", ev.Describe())
			continue
		}
		if unchanged := ev.Name != "tick"; unchanged != (memoized.ns == g.Node(1)) {
			t.Errorf("%s: the memoized node state is the parent's: %v, want %v", ev.Describe(), !unchanged, unchanged)
		}
		if held := x.sc.memo.items[memoized.lo:memoized.hi]; len(held) != int(sends) || slices.Contains(held, nil) || len(cloneSink.msgs) != len(g.msgs)+len(held) || !slices.Equal(cloneSink.msgs[len(g.msgs):], held) {
			t.Errorf("%s: the successor's %d sent items are not the %d the memo holds", ev.Describe(), len(cloneSink.msgs)-len(g.msgs), len(held))
		}
	}
}

// TestReductionCountersAllocBound: the reduction counters are pre-allocated
// atomics on the engine — bumping them costs no allocation — and the sleep-set bookkeeping itself adds at most a small
// constant per executed transition (one childSleep slice per expanded
// child). The bound is relative to the unreduced engine so the existing
// per-state allocation contract keeps gating both configurations.
func TestReductionCountersAllocBound(t *testing.T) {
	run := func(reduce bool) (res *Result, perTransition float64) {
		cfg := Config{
			Props:         poisonAt(1000),
			Factory:       newToy,
			Mode:          Exhaustive,
			Budget:        Budget{Depth: 6, Workers: 1},
			Seed:          7,
			ExploreResets: true,
			Reduce:        reduce,
		}
		allocs := testing.AllocsPerRun(3, func() {
			res = NewSearch(cfg).Run(multiTimerStart())
		})
		if res.Transitions == 0 {
			t.Fatal("no transitions executed")
		}
		return res, allocs / float64(res.Transitions)
	}
	base, basePer := run(false)
	red, redPer := run(true)
	if red.SleepHits == 0 {
		t.Fatalf("toy search pruned nothing; bound is vacuous")
	}
	if red.StatesExplored != base.StatesExplored {
		t.Fatalf("reduced search changed the state set: %d vs %d",
			red.StatesExplored, base.StatesExplored)
	}
	const slack = 3.0 // sleep-set slices + accounting, per transition
	if redPer > basePer+slack {
		t.Fatalf("reduced engine allocates %.1f/transition, unreduced %.1f (+%.0f allowed)",
			redPer, basePer, slack)
	}
}

// TestSearchBytesPerTransitionFlatInCarriedItems: the same search from a
// start state that carries dozens of extra in-flight items — one queue
// between two nodes outside the snapshot, so they are never delivered and
// the state graph keeps its shape — allocates per transition what it
// allocates without them plus, at most, their pointer slots. (The
// value-slice layout copied 48 B per carried item into every successor and
// regrew the copy on the first send.)
func TestSearchBytesPerTransitionFlatInCarriedItems(t *testing.T) {
	const carried = 40
	run := func(items int) (res *Result, perTransition float64) {
		start := multiTimerStart()
		for k := 0; k < items; k++ {
			start.AddMessage(98, 99, ping{N: k})
		}
		s := NewSearch(Config{
			Props: poisonAt(1000), Factory: newToy, Mode: Exhaustive, ExploreResets: true, Reduce: true,
			Budget: Budget{Depth: 6, Workers: 1},
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res = s.Run(start)
		runtime.ReadMemStats(&after)
		return res, float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Transitions)
	}
	bare, light := run(0)
	full, loaded := run(carried)
	if full.StatesExplored != bare.StatesExplored || full.Transitions != bare.Transitions || bare.Transitions < 5000 {
		t.Fatalf("carried items changed the search: %d states / %d transitions against %d / %d",
			full.StatesExplored, full.Transitions, bare.StatesExplored, bare.Transitions)
	}
	t.Logf("bytes per transition: %.0f bare, %.0f carrying %d more items", light, loaded, carried)
	if perItem := (loaded - light) / carried; perItem > 10 {
		t.Fatalf("a carried in-flight item costs %.1f B per transition (%.0f B against %.0f B), want at most its 8-byte slot",
			perItem, loaded, light)
	}
}

// TestEdgeSeedAndSleepLookupAllocFree: what the engine does with an event's
// key per transition — fold its text into the edge seed, look it up in a
// sleep set — allocates nothing, and the seed is the one hashing
// ev.Describe() gave.
func TestEdgeSeedAndSleepLookupAllocFree(t *testing.T) {
	enc := sm.NewEncoder()
	events := []sm.Event{
		sm.Delivery(1, 2, ping{N: 7}),
		sm.TimerFiring(3, "tick"),
		sm.AppInvocation(4, kick{}, enc),
		sm.Reset(5),
		sm.TransportError(6, 7),
		sm.RSTDrop(8, 9),
	}
	tree := newTree(false)
	var resolved []*sm.EventKey
	for _, ev := range events[:3] {
		resolved = append(resolved, tree.keys.at(int(tree.intern(ev.EventKey))))
	}
	const lhash uint64 = 0x0123456789abcdef
	for _, ev := range events {
		h := sm.FNV64aInit
		for i := 0; i < 8; i++ {
			h = sm.FNV64aByte(h, byte(lhash>>(8*i)))
		}
		if got, want := edgeSeed(9, lhash, &ev.EventKey), 9^int64(sm.FNV64aString(h, ev.Describe())); got != want {
			t.Errorf("edgeSeed(%q) = %#x, want %#x (seed ^ FNV of hash bytes and Describe)", ev.Describe(), got, want)
		}
	}
	hits := 0
	if n := testing.AllocsPerRun(100, func() {
		for i := range events {
			if k := &events[i].EventKey; edgeSeed(9, lhash, k) != 0 && slept(resolved, k) {
				hits++
			}
		}
	}); n != 0 {
		t.Errorf("key + edge seed + sleep lookup allocate %.0f times per six events, want 0", n)
	}
	if hits%3 != 0 || hits == 0 {
		t.Errorf("%d sleep hits, want three per pass", hits)
	}
}

// TestEncodedSizeOracle: the incrementally maintained footprint must match
// the from-scratch recomputation at every step of random walks, exactly
// like the hash oracle.
func TestEncodedSizeOracle(t *testing.T) {
	s := NewSearch(Config{
		Props:            poisonAt(1000),
		Factory:          newToy,
		ExploreResets:    true,
		MaxResetsPerPath: 2,
	})
	start := multiTimerStart()
	check := func(g *GState, step int) {
		t.Helper()
		if got, want := g.EncodedSize(), g.fullEncodedSize(); got != want {
			t.Fatalf("step %d: incremental EncodedSize %d != from-scratch %d", step, got, want)
		}
	}
	check(start, -1)
	for w := 0; w < 20; w++ {
		rng := sm.NewRand(int64(w + 1))
		g := start
		for step := 0; step < 25; step++ {
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
			check(next, step)
			check(g, step)
			g = next
		}
	}
}
