package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAfterOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	tm.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.cancelled {
		t.Fatal("cancelled = false after Cancel")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(10*time.Millisecond, func() { fired++ })
	s.After(time.Second, func() { fired++ })
	s.RunUntil(Time(100 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != Time(100*time.Millisecond) {
		t.Fatalf("clock = %v, want 100ms", s.Now())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Second, tick)
		}
	}
	s.After(0, tick)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != Time(4*time.Second) {
		t.Fatalf("clock = %v, want 4s", s.Now())
	}
}

func TestRNGStreamsAreStable(t *testing.T) {
	a := New(42).RNG("net")
	b := New(42).RNG("net")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+name must yield identical streams")
		}
	}
	c := New(42).RNG("workload")
	d := New(42).RNG("net")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different stream names should diverge")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(seed)
		var trace []Time
		rng := s.RNG("jitter")
		var step func()
		n := 0
		step = func() {
			trace = append(trace, s.Now())
			n++
			if n < 50 {
				s.After(time.Duration(rng.Intn(1000))*time.Millisecond, step)
			}
		}
		s.After(0, step)
		s.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatalf("negative delay should fire immediately at t=0; fired=%v now=%v", fired, s.Now())
	}
}

// Property: for any batch of scheduled delays, events fire in nondecreasing
// time order and the clock ends at the maximum delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(3)
		var fireTimes []Time
		var max time.Duration
		for _, d := range delays {
			dur := time.Duration(d) * time.Microsecond
			if dur > max {
				max = dur
			}
			s.After(dur, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return s.Now() == Time(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
