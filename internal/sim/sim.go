// Package sim provides a deterministic discrete-event simulator.
//
// The simulator stands in for the ModelNet cluster used in the CrystalBall
// paper: instead of emulating packet delay, loss and bandwidth on a real
// cluster, all components of this repository schedule callbacks on a shared
// virtual clock. Two runs with the same seed execute exactly the same event
// sequence, which makes every experiment in EXPERIMENTS.md reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation.
type Time int64

// Duration aliases time.Duration for readability at call sites.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Timer is a handle to a scheduled event. It may be cancelled before firing.
type Timer struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel prevents the timer from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t *Timer) Cancel() { t.cancelled = true }

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Timer)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Simulator is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; the entire simulated deployment runs on one goroutine,
// which is what makes runs reproducible.
type Simulator struct {
	now     Time
	seq     uint64
	queue   eventHeap
	seed    int64
	streams map[string]*rand.Rand
}

// New returns a simulator whose randomness derives from seed.
func New(seed int64) *Simulator {
	return &Simulator{seed: seed, streams: make(map[string]*rand.Rand)}
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Seed reports the root seed the simulator was created with.
func (s *Simulator) Seed() int64 { return s.seed }

// RNG returns a named random stream derived deterministically from the root
// seed. Components request their own streams (e.g. "simnet", "workload") so
// adding randomness to one component does not perturb another.
func (s *Simulator) RNG(name string) *rand.Rand {
	if r, ok := s.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r := rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
	s.streams[name] = r
	return r
}

// After schedules fn to run d after the current time and returns a handle
// that can cancel it. A non-positive d schedules fn for the current instant,
// after all events already scheduled for that instant.
func (s *Simulator) After(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Simulator) At(t Time, fn func()) *Timer {
	if t < s.now {
		t = s.now
	}
	s.seq++
	tm := &Timer{at: t, seq: s.seq, fn: fn}
	heap.Push(&s.queue, tm)
	return tm
}

// Step executes the next pending event. It reports false when the queue is
// empty.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		tm := heap.Pop(&s.queue).(*Timer)
		if tm.cancelled {
			continue
		}
		s.now = tm.at
		tm.fn()
		return true
	}
	return false
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled during execution are processed if they fall within the
// window.
func (s *Simulator) RunUntil(t Time) {
	for len(s.queue) > 0 {
		next := s.peek()
		if next == nil {
			break
		}
		if next.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

func (s *Simulator) peek() *Timer {
	for len(s.queue) > 0 {
		if s.queue[0].cancelled {
			heap.Pop(&s.queue)
			continue
		}
		return s.queue[0]
	}
	return nil
}
