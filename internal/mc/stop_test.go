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
