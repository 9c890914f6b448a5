package mc

import (
	"reflect"
	"testing"

	"crystalball/internal/sm"
)

// multiTimerStart builds a 2-node toy state where every node holds several
// pending timers: under the old map-iteration enumeration the timer events'
// order was Go-map-random, so a same-seed search under a state cutoff
// admitted a different prefix run to run. With resets enabled the reset
// transition's RST fan-out order is exercised too.
func multiTimerStart() *GState {
	g := NewGState()
	a, b := newToy(1).(*toy), newToy(2).(*toy)
	a.peers[2] = true
	b.peers[1] = true
	g.AddNode(1, a, sm.NewTimerSet("tick", "tock", "boom", "zap"))
	g.AddNode(2, b, sm.NewTimerSet("tick", "alpha", "omega"))
	g.AddMessage(1, 2, ping{N: 1})
	return g
}

// TestSerialBFSSameSeedReproducible: under a state cutoff the serial engine
// admits a prefix of the expansion order, so any map-order leak into event
// enumeration shows up as run-to-run drift in the admitted set. Resets are
// enabled to cover the reset transition's RST fan-out ordering, and both
// partial-order-reduction settings are exercised — the sleep-set machinery
// must be as deterministic as the expansion order it prunes.
func TestSerialBFSSameSeedReproducible(t *testing.T) {
	for _, mode := range []Mode{Exhaustive, Consequence} {
		for _, reduce := range []bool{false, true} {
			run := func() *Result {
				s := NewSearch(Config{
					Props:         poisonAt(4),
					Factory:       newToy,
					Mode:          mode,
					Budget:        Budget{States: 1500, Workers: 1},
					Seed:          7,
					ExploreResets: true,
					Reduce:        reduce,
				})
				return s.Run(multiTimerStart())
			}
			a, b := run(), run()
			if a.StatesExplored != b.StatesExplored || a.Transitions != b.Transitions {
				t.Fatalf("%v reduce=%v: same-seed serial runs differ: states %d/%d transitions %d/%d",
					mode, reduce, a.StatesExplored, b.StatesExplored, a.Transitions, b.Transitions)
			}
			if a.SleepHits != b.SleepHits || a.TransitionsPruned != b.TransitionsPruned {
				t.Fatalf("%v reduce=%v: same-seed counters differ: sleep %d/%d pruned %d/%d",
					mode, reduce, a.SleepHits, b.SleepHits, a.TransitionsPruned, b.TransitionsPruned)
			}
			if len(a.Violations) != len(b.Violations) {
				t.Fatalf("%v reduce=%v: violation counts differ: %d vs %d", mode, reduce, len(a.Violations), len(b.Violations))
			}
			for i := range a.Violations {
				if a.Violations[i].StateHash != b.Violations[i].StateHash {
					t.Fatalf("%v reduce=%v: violation %d hash differs", mode, reduce, i)
				}
			}
		}
	}
}

// TestEnabledEventsDeterministicOrder: repeated enumerations of the same
// state list events in the same order, timers sorted by id.
func TestEnabledEventsDeterministicOrder(t *testing.T) {
	g := multiTimerStart()
	s := NewSearch(Config{Props: poisonAt(4), Factory: newToy, ExploreResets: true})
	network, internal := s.EnabledEvents(g)
	base := append([]string{}, describePath(network)...)
	for _, id := range g.Nodes() {
		base = append(base, describePath(internal[id])...)
	}
	for trial := 0; trial < 20; trial++ {
		network, internal := s.EnabledEvents(g)
		got := append([]string{}, describePath(network)...)
		for _, id := range g.Nodes() {
			got = append(got, describePath(internal[id])...)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("enumeration order drifted on trial %d:\n%v\nvs\n%v", trial, got, base)
		}
	}
	// Timer events for node 1 must appear in sorted timer-id order.
	var timerOrder []string
	for _, ev := range internal[1] {
		if ev.Kind == 'T' {
			timerOrder = append(timerOrder, ev.Name)
		}
	}
	want := []string{"boom", "tick", "tock", "zap"}
	if !reflect.DeepEqual(timerOrder, want) {
		t.Fatalf("timer order %v, want sorted %v", timerOrder, want)
	}
}
