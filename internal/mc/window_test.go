package mc

import (
	"runtime"
	"testing"
	"time"

	"crystalball/internal/sm"
)

// Tests for what holding a state only until it is expanded makes possible to
// get wrong: a result that depends on the claim window, a leaf that keeps
// its state or is reported when it is checked instead of when it is
// admitted, a queue the state budget no longer bounds, and a live heap that
// grows with the last level again.

// TestWindowIndependenceToy: the toy model with resets, at a depth whose
// widest bucket spans five default windows in exhaustive mode and three under
// the consequence rule (see CheckWindowIndependence; the real services run it
// from services_test.go).
func TestWindowIndependenceToy(t *testing.T) {
	cfg := Config{Props: poisonAt(3), Factory: newToy, ExploreResets: true, Budget: Budget{Depth: 5}}
	CheckWindowIndependence(t, cfg, wideStart(), Exhaustive, Consequence)
}

// TestLeavesAreCheckedWhenClaimed: once the bucket above the depth bound is
// drained, every queued leaf has been checked — a leaf holds an entry and a
// state exactly when it violates a property, which the state its path
// replays to must do, and a clean one is a count — while the result
// (admission, depth, violations) is what it is with unchecked leaves.
func TestLeavesAreCheckedWhenClaimed(t *testing.T) {
	const depth = 6
	for _, reduce := range []bool{false, true} {
		s := NewSearch(Config{
			Props: poisonAt(3), Factory: newToy, Mode: Exhaustive, ExploreResets: true, Reduce: reduce,
			Budget: Budget{Depth: depth, Workers: 2},
		})
		start := twoNodeStart()
		e := s.NewEngine(s.Config().Budget, HashRange{}, nil)
		e.Inject(Forward{State: start})
		x, px := s.NewExpander(), s.NewExpander()
		kept, let := 0, 0
		if err := e.Drain(func() error {
			e.queuedAt(depth, func(r Ref, h *held) {
				_, g, err := s.ReplayKeys(px, start, r.Keys())
				if err != nil {
					t.Fatal(err)
				}
				if violated := x.Check(g); h.state == nil || len(violated) == 0 {
					t.Fatalf("reduce=%v: queued leaf holds state: %v, its path replays to a state violating %v", reduce, h.state != nil, violated)
				}
				if h.sleepLen != 0 {
					t.Fatalf("reduce=%v: a leaf was given a sleep set", reduce)
				}
				kept++
			})
			let = max(let, e.cleanAt(depth))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if kept == 0 || let <= kept {
			t.Fatalf("reduce=%v: %d leaves held, %d let go: the test needs both, mostly the latter", reduce, kept, let)
		}
		res := e.Result()
		if res.StatesExplored != e.Claimed() || res.MaxDepthReached != depth || len(e.Violations(start)) == 0 {
			t.Fatalf("reduce=%v: explored %d of %d claimed to depth %d, %d violations", reduce, res.StatesExplored, e.Claimed(), res.MaxDepthReached, len(e.Violations(start)))
		}
	}
}

// TestShallowerViolationBeatsCheckedLeaf: a violating leaf under an early
// parent is checked, window by window, before a violating state late in the
// parents' own bucket is even expanded. Checking is not reporting: with a
// quota of one the search still reports the shallower state, as the
// whole-bucket search did.
func TestShallowerViolationBeatsCheckedLeaf(t *testing.T) {
	// Node 1 ticks first in event order and is far from the limit; node 2
	// ticks last and reaches it at once. The start state's first child (node
	// 1 ticked) has the violating child (then node 2 ticked) at the bound.
	start := func() *GState {
		g := NewGState()
		late := newToy(2).(*toy)
		late.counter = 2
		g.AddNode(1, newToy(1), sm.TimerSet{"tick"})
		g.AddNode(2, late, sm.TimerSet{"tick"})
		return g
	}
	for _, window := range []int{1, claimWindow} {
		s := NewSearch(Config{Props: poisonAt(3), Factory: newToy, Mode: Exhaustive, Budget: Budget{Depth: 2, Violations: 1, Workers: 1}})
		e := s.NewEngine(s.Config().Budget, HashRange{}, nil)
		e.window = window
		e.Inject(Forward{State: start()})
		leafHeld := false
		if err := e.Drain(func() error {
			e.queuedAt(2, func(_ Ref, h *held) { leafHeld = leafHeld || h.state != nil })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		res, vs := e.Result(), e.Violations(start())
		if len(vs) != 1 || vs[0].Depth != 1 || len(vs[0].Path) != 1 || res.StopReason != "violations" {
			t.Fatalf("window=%d: violations %+v, stop %q; want the one at depth 1", window, vs, res.StopReason)
		}
		if window == 1 && !leafHeld {
			t.Fatal("window=1: no violating leaf was queued before the depth-1 violation stopped the search: the test is vacuous")
		}
	}
}

// TestLiveHeapFollowsWidestExpandedBucket pins what a depth-bounded search
// keeps alive while it runs. Sampled after every bucket, the live heap is
// the states still to expand plus the stateless tree (and the last window's
// proposals), so it peaks with the widest bucket below the depth bound
// queued; with the leaf bucket queued — 2.5 times as many nodes, no states —
// it is lower. Queueing leaves with their states reads 17.3 MB there, over
// both bounds.
func TestLiveHeapFollowsWidestExpandedBucket(t *testing.T) {
	const depth = 6
	s := NewSearch(Config{
		Props: poisonAt(1000), Factory: newToy, Mode: Exhaustive, ExploreResets: true, Reduce: true,
		Budget: Budget{Depth: depth, Workers: 1},
	})
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	e := s.NewEngine(s.Config().Budget, HashRange{}, nil)
	e.Inject(Forward{State: wideStart()})
	// The sample with the widest expanded bucket queued, and the one with the
	// leaf bucket queued.
	var widest, leaves struct {
		heap            int64
		queued, claimed int
	}
	if err := e.Drain(func() error {
		live := heap() - before
		if e.fr.len(depth) > 0 {
			leaves.heap, leaves.queued, leaves.claimed = live, e.fr.count, e.Claimed()
		} else if e.fr.count > widest.queued {
			widest.heap, widest.queued, widest.claimed = live, e.fr.count, e.Claimed()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("live heap %d kB with %d states queued (%d claimed), %d kB with %d leaves queued (%d claimed)",
		widest.heap>>10, widest.queued, widest.claimed, leaves.heap>>10, leaves.queued, leaves.claimed)
	if leaves.queued < 2*widest.queued || widest.queued < 2*claimWindow {
		t.Fatalf("leaf bucket %d, widest expanded bucket %d: want a last level far wider than the one before", leaves.queued, widest.queued)
	}
	// Measured: 1,420 B per held toy state (twelve carried items, a sleep
	// set), 265 B per claimed state for its stateless node and table entries;
	// 10.2 MB and 6.0 MB at the two samples.
	const perHeld, perClaimed, headroom = 1420, 265, 1.5
	for _, at := range []struct {
		what    string
		heap    int64
		allowed float64
	}{
		{"the widest expanded bucket", widest.heap, headroom * float64(widest.queued*perHeld+widest.claimed*perClaimed)},
		{"the leaf bucket", leaves.heap, headroom * float64(leaves.claimed*perClaimed)},
	} {
		if float64(at.heap) > at.allowed {
			t.Errorf("live heap with %s queued is %d kB, want <= %.0f kB", at.what, at.heap>>10, at.allowed/1024)
		}
	}
	if leaves.heap >= widest.heap {
		t.Errorf("live heap with the leaves queued (%d kB) is not below the one before (%d kB): are checked leaves queued with their states?", leaves.heap>>10, widest.heap>>10)
	}
	runtime.KeepAlive(e)
}

// TestStopReason: a result says which bound stopped the search — the first
// to trip — or what the search ran out of.
func TestStopReason(t *testing.T) {
	base := Config{Props: poisonAt(3), Factory: newToy, Mode: Exhaustive, ExploreResets: true}
	for _, tc := range []struct {
		want   string
		mode   Mode
		budget Budget
	}{
		{"frontier-empty", Exhaustive, Budget{Depth: 4}},
		{"frontier-empty", Consequence, Budget{Depth: 4, States: 100000, Violations: 100}},
		{"states", Exhaustive, Budget{States: 50}},
		{"violations", Exhaustive, Budget{States: 5000, Violations: 1}},
		{"wall", Exhaustive, Budget{Wall: 20 * time.Millisecond, States: 5000}},
	} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Mode, cfg.Budget = tc.mode, tc.budget
			cfg.Budget.Workers = workers
			cfg.Now = (&fakeClock{step: time.Millisecond}).Now
			if got := NewSearch(cfg).Run(twoNodeStart()).StopReason; got != tc.want {
				t.Errorf("%v %+v: stop reason %q, want %q", tc.mode, cfg.Budget, got, tc.want)
			}
		}
	}
}

// TestStateBudgetCapsQueueToy: under Budget{States: B} the engine queues no
// child the budget cannot reach, and once it has kept one out it builds no
// more. The serial runs' claimed and local state sets and transitions are
// pinned as recorded when capped runs stopped building; what they check and
// report is what the uncapped queue did (TestCappedRunsCheckRecordedStatesToy),
// not what it executed. With several workers the cut is as exact; which
// states fall inside it may vary, as before. A budget larger than the
// depth-bounded space is never the reason the search ends.
func TestStateBudgetCapsQueueToy(t *testing.T) {
	cfg := Config{Props: poisonAt(3), Factory: newToy, ExploreResets: true, Reduce: true}
	for _, tc := range []struct {
		mode   Mode
		states int
		want   CapRun
	}{
		{Exhaustive, 10, CapRun{Claimed: 18, Locals: 5, ClaimedSum: 0x1676e91c2f308787, LocalSum: 0x72007b87608f3d55, Transitions: 17, Violations: 0}},
		{Exhaustive, 100, CapRun{Claimed: 135, Locals: 9, ClaimedSum: 0xdfbd90bfdcc2a565, LocalSum: 0xf925e301e6f04a7f, Transitions: 243, Violations: 0}},
		{Exhaustive, 1000, CapRun{Claimed: 2638, Locals: 17, ClaimedSum: 0xc60681953a855f7f, LocalSum: 0x8f2418bb8c47b93d, Transitions: 7948, Violations: 1}},
		{Consequence, 10, CapRun{Claimed: 18, Locals: 5, ClaimedSum: 0x1676e91c2f308787, LocalSum: 0x72007b87608f3d55, Transitions: 17, Violations: 0}},
		{Consequence, 100, CapRun{Claimed: 129, Locals: 9, ClaimedSum: 0x11246afa4a04b366, LocalSum: 0xf925e301e6f04a7f, Transitions: 197, Violations: 0}},
		{Consequence, 1000, CapRun{Claimed: 2181, Locals: 13, ClaimedSum: 0x2ff8cef53c384769, LocalSum: 0x1db08327094ea321, Transitions: 6231, Violations: 1}},
	} {
		cfg.Mode = tc.mode
		if got, _ := StateBudgetRun(t, cfg, wideStart(), tc.states, 0, 1); got != tc.want {
			t.Errorf("%v States=%d: %+v, recorded %+v", tc.mode, tc.states, got, tc.want)
		}
		StateBudgetRun(t, cfg, wideStart(), tc.states, 0, 4)
	}
	for _, mode := range []Mode{Exhaustive, Consequence} {
		cfg.Mode = mode
		for _, workers := range []int{1, 4} {
			if got, _ := StateBudgetRun(t, cfg, wideStart(), 100000, 4, workers); got.Claimed > 5000 {
				t.Fatalf("%v: %d states within depth 4, want a space the budget does not cut", mode, got.Claimed)
			}
		}
	}
}

// TestCappedRunsCheckRecordedStatesToy is the checked-set oracle on the
// TestStateBudgetCapsQueueToy cases: each serial capped run admits and checks
// exactly the states it did before the cap stopped building children — their
// number and fingerprint sum, the depth reached and the violations'
// signatures were recorded on the commit that still built them.
func TestCappedRunsCheckRecordedStatesToy(t *testing.T) {
	cfg := Config{Props: poisonAt(3), Factory: newToy, ExploreResets: true, Reduce: true}
	for _, tc := range []struct {
		mode   Mode
		states int
		want   Checked
	}{
		{Exhaustive, 10, Checked{States: 10, Sum: 0x45f456f78d8f9483, Depth: 1}},
		{Exhaustive, 100, Checked{States: 100, Sum: 0x48073d225b4b5fab, Depth: 2}},
		{Exhaustive, 1000, Checked{States: 1000, Sum: 0xd9ca054b1073d982, Depth: 4, Signatures: "CounterBelowLimit|msg:Ping"}},
		{Consequence, 10, Checked{States: 10, Sum: 0x45f456f78d8f9483, Depth: 1}},
		{Consequence, 100, Checked{States: 100, Sum: 0x61b500c74ea50a5d, Depth: 2}},
		{Consequence, 1000, Checked{States: 1000, Sum: 0x24d28249dc8da1eb, Depth: 4, Signatures: "CounterBelowLimit|msg:Ping"}},
	} {
		cfg.Mode = tc.mode
		if _, got := StateBudgetRun(t, cfg, wideStart(), tc.states, 0, 1); got != tc.want {
			t.Errorf("%v States=%d: checked %#v, recorded %#v", tc.mode, tc.states, got, tc.want)
		}
	}
}

// TestCapStopsQueueingToy: once the state budget keeps a claimed child out of
// the queue, no later claim pass queues one, at any worker count and claim
// window (CheckCapStopsQueueing) — what lets a capped engine stop building.
func TestCapStopsQueueingToy(t *testing.T) {
	cfg := Config{Props: poisonAt(3), Factory: newToy, ExploreResets: true, Reduce: true}
	for _, mode := range []Mode{Exhaustive, Consequence} {
		cfg.Mode = mode
		CheckCapStopsQueueing(t, cfg, wideStart(), 1000)
	}
}
