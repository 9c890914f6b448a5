package mc

import (
	"fmt"
	"testing"

	"crystalball/internal/sm"
)

// poisonScratch overwrites everything in sc that a successor under
// construction points into — the item buffer, the node, in-flight and stale
// containers up to their capacity, the executed node's state, the
// handler's working timer set and the spare service — with values no search
// produces. The next build overwrites them all again, so poisoning between
// builds is harmless to the search; a published state that still points into
// the scratch, or still shares its spare service, reads the poison.
func poisonScratch(sc *scratch) {
	bad := newToy(97).(*toy)
	bad.counter = 1 << 20
	node := &NodeState{Svc: bad, Timers: sm.TimerSet{"poison"}, id: 97, encLen: 1 << 20, chash: 0xbad}
	item := &InFlight{From: 97, To: 98, Msg: ping{N: 1 << 20}, pos: 5, chash: 0xbad, sz: 1 << 20}
	for i, items := 0, sc.items[:cap(sc.items)]; i < len(items); i++ {
		items[i] = *item
	}
	for i, nodes := 0, sc.next.nodes[:cap(sc.next.nodes)]; i < len(nodes); i++ {
		nodes[i] = node
	}
	for i, msgs := 0, sc.next.msgs[:cap(sc.next.msgs)]; i < len(msgs); i++ {
		msgs[i] = item
	}
	for i, stale := 0, sc.next.stale[:cap(sc.next.stale)]; i < len(stale); i++ {
		stale[i] = pair{97, 98}
	}
	for i, timers := 0, sc.fx.Timers[:cap(sc.fx.Timers)]; i < len(timers); i++ {
		timers[i] = "poison"
	}
	sc.node = *node
	if spare, ok := sc.svc.(*toy); ok {
		*spare = *bad
		spare.peers[97] = true
	}
}

// TestPublishedStatesNeverAliasScratch is the scratch-aliasing oracle. A
// state the engine holds, or hands to its sink, was published, so nothing in
// it may point into the scratch it was built in. After every window the test
// poisons each worker's scratch and then recomputes the fingerprint and the
// footprint of every held and every forwarded state from scratch: a state
// that still reads scratch memory reads the poison, and FullHash or
// fullEncodedSize disagrees with the incremental Hash or EncodedSize. The
// searches exercise every constructor and every part publish copies: sends,
// queue-mates moved up by a delivery, resets (stale pairs, RSTs), connection
// breaks, changed timer sets and filtered deliveries, claimed in one range
// and in half of it, at one and two workers, in windows of 7 and of the
// default size.
func TestPublishedStatesNeverAliasScratch(t *testing.T) {
	start := multiTimerStart()
	start.AddMessage(1, 2, ping{N: 2}) // queue-mates: a delivery moves them up
	start.AddMessage(1, 2, ping{N: 3})
	start.MarkStale(2, 1) // node 2's next send to 1 clears it
	checked := 0
	verify := func(name string, g *GState) {
		t.Helper()
		if g == nil {
			return
		}
		checked++
		if g.FullHash() != g.Hash() || g.fullEncodedSize() != g.EncodedSize() {
			t.Fatalf("%s: a published state reads its scratch: hash %#x, recomputed %#x; size %d, recomputed %d",
				name, g.Hash(), g.FullHash(), g.EncodedSize(), g.fullEncodedSize())
		}
	}
	for _, tc := range []struct {
		mode    Mode
		reduce  bool
		filter  bool
		sharded bool
		window  int
		depth   int
	}{
		{Exhaustive, false, false, false, 7, 3},
		{Exhaustive, true, false, false, claimWindow, 5},
		{Consequence, true, false, false, 7, 4},
		{Consequence, false, false, false, claimWindow, 6},
		{Exhaustive, false, true, false, claimWindow, 5},
		{Exhaustive, true, false, true, claimWindow, 5},
	} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%v reduce=%v filter=%v sharded=%v window=%d workers=%d", tc.mode, tc.reduce, tc.filter, tc.sharded, tc.window, workers)
			cfg := Config{
				Props: poisonAt(1000), Factory: newToy, Mode: tc.mode, Reduce: tc.reduce,
				ExploreResets: true, MaxResetsPerPath: 2, ExploreConnBreaks: true,
				Budget: Budget{Depth: tc.depth, Workers: workers},
			}
			if tc.filter {
				cfg.Filters = []sm.Filter{{Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Ping"}, BreakConn: true}}
			}
			s := NewSearch(cfg)
			own, forward := HashRange{}, (func(Forward) error)(nil)
			var forwarded []*GState
			if tc.sharded {
				own = ShardRange(0, 2)
				forward = func(f Forward) error {
					forwarded = append(forwarded, f.State)
					return nil
				}
			}
			e := s.NewEngine(cfg.Budget, own, forward)
			e.window = tc.window
			windows, before := 0, checked
			e.windowDone = func() {
				windows++
				for _, x := range e.xs {
					poisonScratch(x.sc)
				}
				for depth := range e.fr.buckets {
					e.queuedAt(depth, func(_ Ref, h *held) { verify(name, h.state) })
				}
				for _, g := range forwarded {
					verify(name+" (forwarded)", g)
				}
				forwarded = forwarded[:0]
			}
			e.Inject(Forward{State: start})
			if err := e.Drain(nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res := e.Result(); res.Unbuilt == 0 || checked-before < 100 || windows < 3 {
				t.Fatalf("%s: %d windows, %d states checked, %d unbuilt: the oracle exercises too little", name, windows, checked-before, res.Unbuilt)
			}
		}
	}
}
