package mc

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic clock: every Now() reading advances it by one
// step, so wall-budget expiry becomes a pure function of how many readings
// the search performs rather than of real time.
type fakeClock struct {
	step time.Duration
	n    atomic.Int64
}

func (f *fakeClock) Now() time.Time {
	return time.Unix(0, f.n.Add(1)*int64(f.step))
}

// TestBudgetWallExpiryFakeClock drives the budget's Wall deadline with a
// fake clock: the number of admitted states is exactly the wall budget
// divided by the clock step, with no real sleeping involved.
func TestBudgetWallExpiryFakeClock(t *testing.T) {
	fc := &fakeClock{step: time.Millisecond}
	b := newBudget(Budget{Wall: 10 * time.Millisecond}, fc.Now)
	admitted := 0
	for b.admitState() {
		admitted++
		if admitted > 1000 {
			t.Fatal("wall deadline never tripped under the fake clock")
		}
	}
	// newBudget reads the clock once (t=1ms, deadline 11ms); admission k
	// reads t=(1+k)ms and fails first at t=12ms, so exactly 10 admissions.
	if admitted != 10 {
		t.Fatalf("admitted %d states before wall expiry, want 10", admitted)
	}
	if !b.exhausted() {
		t.Fatal("budget not marked exhausted after wall expiry")
	}
	if got := b.elapsed(); got <= 10*time.Millisecond {
		t.Fatalf("elapsed %v not past the 10ms wall budget", got)
	}
}

// TestWallBudgetExpiryDeterministic runs a wall-bounded search under the
// injected fake clock twice: both runs must cut off at the identical state
// count and report the identical Elapsed, which is impossible with a real
// clock.
func TestWallBudgetExpiryDeterministic(t *testing.T) {
	run := func() *Result {
		fc := &fakeClock{step: time.Millisecond}
		s := NewSearch(Config{
			Props:   poisonAt(1000),
			Factory: newToy,
			Mode:    Exhaustive,
			Budget:  Budget{Wall: 20 * time.Millisecond, Workers: 1},
			Now:     fc.Now,
		})
		return s.Run(twoNodeStart())
	}
	a, b := run(), run()
	if a.StatesExplored != b.StatesExplored {
		t.Fatalf("state counts differ across identical fake-clock runs: %d vs %d",
			a.StatesExplored, b.StatesExplored)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("Elapsed differs across identical fake-clock runs: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.Elapsed < 20*time.Millisecond {
		t.Fatalf("Elapsed %v below the wall budget: deadline never tripped", a.Elapsed)
	}
	// The fake clock expires the budget after ~20 admissions; the toy state
	// space is far larger, so expiry (not exhaustion) must have stopped it.
	if a.StatesExplored > 30 {
		t.Fatalf("explored %d states, wall budget should have stopped it near 20", a.StatesExplored)
	}
}

// wideStart is a state with many independent deliverable items, so the
// search reaches a level with well over two claim-clock intervals of
// proposed children within a few hundred expansions.
func wideStart() *GState {
	g := twoNodeStart()
	for k := 0; k < 12; k++ {
		g.AddMessage(2, 1, note{K: k})
	}
	return g
}

// TestWallDeadlineReadInsideClaimPass: the deadline is read between
// proposed children, not only at state admission. Driving the buckets by
// hand with a clock that advances per read finds the first claim pass long
// enough to read it twice; a search whose Wall runs out at that pass's
// first read stops claiming right there — one interval into the pass —
// and reports an Elapsed past the Wall by the two readings that noticed
// and reported it. Without a Wall the search reads the clock twice, ever.
func TestWallDeadlineReadInsideClaimPass(t *testing.T) {
	cfg := Config{Props: poisonAt(1000), Factory: newToy, Mode: Exhaustive, RecordClaimedStates: true}
	fc := &fakeClock{step: time.Millisecond}
	cfg.Now = fc.Now
	s := NewSearch(cfg)
	// A Wall the probe never reaches: every read happens, none expires.
	e := s.NewEngine(Budget{Wall: time.Hour, Depth: 6, Workers: 1}, HashRange{}, nil)
	e.Inject(NewNode(wideStart(), 0))
	var readsBefore int64 // clock reads up to the start of the long claim pass
	var claimedBefore, proposed int
	for e.fr.count > 0 {
		outs := e.expandBucket(e.fr.popBucket())
		readsBefore, claimedBefore, proposed = fc.n.Load(), e.Claimed(), 0
		for _, children := range outs {
			proposed += len(children)
		}
		if err := e.claimChildren(outs); err != nil {
			t.Fatal(err)
		}
		if fc.n.Load()-readsBefore >= 2 {
			break
		}
	}
	if proposed < 2*claimClockEvery {
		t.Fatalf("no level above depth 6 proposed two claim-clock intervals of children (last: %d)", proposed)
	}
	fullLevel := e.Claimed() - claimedBefore

	// newBudget's reading is t=1ms, so the reading that starts the long
	// pass (number readsBefore+1) is the first one past this Wall.
	wall := time.Duration(readsBefore-1) * time.Millisecond
	fc = &fakeClock{step: time.Millisecond}
	cfg.Now = fc.Now
	cfg.Budget = Budget{Wall: wall, Workers: 1}
	res := NewSearch(cfg).Run(wideStart())
	stoppedAt := len(res.ClaimedStates) - claimedBefore
	if stoppedAt <= 0 || stoppedAt >= claimClockEvery || stoppedAt >= fullLevel {
		t.Fatalf("claim pass claimed %d states after the deadline, want fewer than one interval (%d) of the level's %d",
			stoppedAt, claimClockEvery, fullLevel)
	}
	if over := res.Elapsed - wall; over <= 0 || over > 2*time.Millisecond {
		t.Fatalf("Elapsed %v against Wall %v: over by %v, want the two readings that noticed and reported it", res.Elapsed, wall, over)
	}

	fc = &fakeClock{step: time.Millisecond}
	cfg.Now = fc.Now
	cfg.Budget = Budget{Depth: 4, Workers: 1}
	NewSearch(cfg).Run(wideStart())
	if got := fc.n.Load(); got != 2 {
		t.Fatalf("a search without a Wall read the clock %d times, want 2 (start and Elapsed)", got)
	}
}
