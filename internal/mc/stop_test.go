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
// proposed children, not only at state admission, and the count that paces
// those reads runs across windows (no single window proposes a whole
// interval). A probe drain under a clock that advances per read finds the
// first read a claim pass made; a drain whose Wall runs out at exactly that
// read stops claiming right there — mid-pass, nothing admitted or claimed
// after it — and reports an Elapsed past the Wall by the two readings that
// noticed and reported it. Without a Wall the search reads the clock twice,
// ever.
func TestWallDeadlineReadInsideClaimPass(t *testing.T) {
	cfg := Config{Props: poisonAt(1000), Factory: newToy, Mode: Exhaustive}
	// drain runs the search under a fresh per-read clock and returns, per
	// clock read, the proposals handled and the states claimed by then.
	type reading struct{ proposals, claimed int }
	drain := func(wall time.Duration) (*Engine, []reading) {
		fc := &fakeClock{step: time.Millisecond}
		var e *Engine
		var reads []reading
		c := cfg
		c.Now = func() time.Time {
			if e == nil {
				reads = append(reads, reading{})
			} else {
				reads = append(reads, reading{e.proposals, e.Claimed()})
			}
			return fc.Now()
		}
		e = NewSearch(c).NewEngine(Budget{Wall: wall, Depth: 6, Workers: 1}, HashRange{}, nil)
		e.Inject(Forward{State: wideStart()})
		if err := e.Drain(nil); err != nil {
			t.Fatal(err)
		}
		return e, reads
	}
	// A Wall the probe never reaches: every read happens, none expires.
	probe, reads := drain(time.Hour)
	// Admission reads see the proposal count the last claim pass left; only a
	// read from inside a claim pass sees a count that moved since the last
	// read and sits on the interval.
	hit := 0
	for k := 1; k < len(reads) && hit == 0; k++ {
		if reads[k].proposals != reads[k-1].proposals && reads[k].proposals%claimClockEvery == 0 {
			hit = k
		}
	}
	if hit == 0 {
		t.Fatalf("no claim pass read the deadline in %d proposals over %d windowed buckets", probe.proposals, probe.fr.low)
	}
	if probe.window >= claimClockEvery {
		t.Fatalf("window %d is a whole clock interval: the test no longer shows the count crossing windows", probe.window)
	}
	at := reads[hit]
	if next := reads[hit+1]; next.claimed == at.claimed {
		t.Fatalf("the probe's pass claimed nothing after its deadline read: stopping there would not be mid-pass")
	}

	// Reading k returns k ms and the first (newBudget's) starts the Wall, so
	// reading hit+1 is the first one past this Wall.
	wall := time.Duration(hit-1) * time.Millisecond
	e, stopped := drain(wall)
	res := e.Result()
	if e.proposals != at.proposals || e.Claimed() != at.claimed || len(stopped) != hit+1 {
		t.Fatalf("stopped after %d proposals, %d claimed, %d reads; want %d, %d, %d: the pass did not stop at its deadline read",
			e.proposals, e.Claimed(), len(stopped), at.proposals, at.claimed, hit+1)
	}
	if res.StopReason != "wall" || !e.Exhausted() {
		t.Fatalf("stop reason %q, exhausted %v; want wall", res.StopReason, e.Exhausted())
	}
	if over := res.Elapsed - wall; over <= 0 || over > 2*time.Millisecond {
		t.Fatalf("Elapsed %v against Wall %v: over by %v, want the two readings that noticed and reported it", res.Elapsed, wall, over)
	}

	fc := &fakeClock{step: time.Millisecond}
	cfg.Now = fc.Now
	cfg.Budget = Budget{Depth: 4, Workers: 1}
	NewSearch(cfg).Run(wideStart())
	if got := fc.n.Load(); got != 2 {
		t.Fatalf("a search without a Wall read the clock %d times, want 2 (start and Elapsed)", got)
	}
}
