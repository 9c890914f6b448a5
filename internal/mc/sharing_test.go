package mc

import (
	"reflect"
	"runtime"
	"testing"

	"crystalball/internal/sm"
)

// Tests for what sharing buys and what it makes possible to get wrong:
// in-flight items are shared by every state that holds them and must never
// be written after construction; an expanded node lets go of its state; and
// a successor the visited table already holds never becomes a Node.

// longQueueStart builds a two-node state whose 1→2 Ping queue holds three
// items (delivering the head moves two queue-mates one position up) next to
// a one-item 2→1 queue.
func longQueueStart() *GState {
	g := NewGState()
	a, b := newToy(1).(*toy), newToy(2).(*toy)
	a.peers[2] = true
	b.peers[1] = true
	g.AddNode(1, a, sm.TimerSet{"tick"})
	g.AddNode(2, b, nil)
	for n := 1; n <= 3; n++ {
		g.AddMessage(1, 2, ping{N: n})
	}
	g.AddMessage(2, 1, ping{N: 1})
	return g
}

// checkIntact asserts that g's maintained totals match the from-scratch
// oracles and that every item still sits at the position it was built with.
func checkIntact(t *testing.T, what string, g *GState, wantPos []int) {
	t.Helper()
	if got, full := g.Hash(), g.FullHash(); got != full {
		t.Errorf("%s: Hash %#x != FullHash %#x", what, got, full)
	}
	if got, full := g.EncodedSize(), g.fullEncodedSize(); got != full {
		t.Errorf("%s: EncodedSize %d != from-scratch %d", what, got, full)
	}
	pos := make([]int, len(g.msgs))
	for i, m := range g.msgs {
		pos[i] = int(m.pos)
	}
	if !reflect.DeepEqual(pos, wantPos) {
		t.Errorf("%s: item positions %v, want %v", what, pos, wantPos)
	}
}

// TestDeliveryNeverWritesSharedItems: delivering the head of a three-item
// queue re-positions its two queue-mates in the successor only. The parent
// and a sibling successor, which share those very items, keep their
// positions, hashes and footprint — and a second delivery from the parent,
// which subtracts the shared items' cached hashes again, still agrees with
// the from-scratch oracle.
func TestDeliveryNeverWritesSharedItems(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	parent := longQueueStart()
	sibling := s.ApplyEvent(parent, sm.Delivery(2, 1, ping{N: 1}))
	if sibling == nil {
		t.Fatal("2→1 delivery not applicable")
	}
	// The sibling consumed the 2→1 item and its handler sent a 1→2 Ping:
	// the fourth item of that queue.
	siblingPos := []int{0, 1, 2, 3}
	checkIntact(t, "sibling before", sibling, siblingPos)
	if sibling.msgs[0] != parent.msgs[0] || sibling.msgs[2] != parent.msgs[2] {
		t.Fatal("sibling does not share its parent's items")
	}

	head := sm.Delivery(1, 2, ping{N: 1})
	for round := 0; round < 2; round++ {
		next := s.ApplyEvent(parent, head)
		if next == nil {
			t.Fatal("head delivery not applicable")
		}
		// Queue-mates N=2,3 moved up; then the untouched 2→1 item and the
		// reply the handler sent (2→1, behind it).
		checkIntact(t, "successor", next, []int{0, 1, 0, 1})
		if next.msgs[0] == parent.msgs[1] {
			t.Fatal("re-positioned queue-mate is still the parent's item")
		}
		if next.msgs[2] != parent.msgs[3] {
			t.Fatal("item of an untouched queue was copied")
		}
		checkIntact(t, "parent", parent, []int{0, 1, 2, 0})
		checkIntact(t, "sibling", sibling, siblingPos)
	}
}

// TestSharedItemsUnderParallelExpansion runs the same shape through the
// engine at four workers: siblings deliver from and re-position the same
// shared queue concurrently, so under -race an in-place write to a shared
// item is a reported race, and in any build the claimed set must match the
// single-worker run.
func TestSharedItemsUnderParallelExpansion(t *testing.T) {
	for _, reduce := range []bool{false, true} {
		run := func(workers int) *Result {
			return NewSearch(Config{
				Props: poisonAt(1000), Factory: newToy, Mode: Exhaustive, ExploreResets: true,
				Reduce: reduce, RecordClaimedStates: true,
				Budget: Budget{Depth: 5, Workers: workers},
			}).Run(longQueueStart())
		}
		one, four := run(1), run(4)
		if !reflect.DeepEqual(one.ClaimedStates, four.ClaimedStates) || one.Transitions != four.Transitions {
			t.Fatalf("reduce=%v: workers 4 claimed %d states in %d transitions, workers 1 %d in %d",
				reduce, len(four.ClaimedStates), four.Transitions, len(one.ClaimedStates), one.Transitions)
		}
	}
}

// applyPath applies path event by event from start and returns the state it
// reaches.
func applyPath(t *testing.T, s *Search, start *GState, path []sm.Event) *GState {
	t.Helper()
	g := start
	for i, ev := range path {
		if g = s.ApplyEvent(g, ev); g == nil {
			t.Fatalf("path step %d (%s) not applicable", i, ev.Describe())
		}
	}
	return g
}

// TestExpandedNodesLetGoOfState: every frontier entry the engine has
// expanded holds neither state nor sleep set afterwards, its tree entry still
// answers Hash with the fingerprint it was claimed under (a leaf queued
// without its state answers with what its path replays to), and a reported
// violation's path — resolved from descriptors — leads from the start state
// to the reported state hash.
func TestExpandedNodesLetGoOfState(t *testing.T) {
	for _, reduce := range []bool{false, true} {
		s := NewSearch(Config{
			Props: poisonAt(3), Factory: newToy, Mode: Exhaustive, ExploreResets: true, Reduce: reduce,
			Budget: Budget{Depth: 6, Workers: 2},
		})
		start := twoNodeStart()
		e := s.NewEngine(s.Config().Budget, HashRange{}, nil)
		e.Inject(Forward{State: start})
		// Every claimed state sits in the frontier between two buckets:
		// remember each entry with the hash it was claimed under, its
		// state's, and the number of clean leaves at the bound, which are
		// queued as a count. (A held entry never moves, so its address
		// outlives the bucket's place in the frontier.)
		claimedUnder := map[*held]uint64{}
		slept, clean := 0, 0
		remember := func() error {
			for _, bucket := range e.fr.buckets {
				for i := 0; bucket != nil && i < bucket.held.n; i++ {
					h := bucket.held.at(i)
					if h.state == nil {
						t.Fatalf("state queued at depth %d without its state", Ref{e.tree, h.idx}.Depth())
					}
					slept += int(h.sleepLen)
					claimedUnder[h] = h.state.Hash()
				}
			}
			clean = max(clean, e.cleanAt(6))
			return nil
		}
		_ = remember()
		if err := e.Drain(remember); err != nil {
			t.Fatal(err)
		}
		if len(claimedUnder)+clean != e.Claimed() || e.Claimed() < 100 || clean == 0 || e.tree.entries.n != len(claimedUnder) {
			t.Fatalf("remembered %d entries and %d clean leaves of %d claimed (%d in the tree)", len(claimedUnder), clean, e.Claimed(), e.tree.entries.n)
		}
		if reduce == (slept == 0) {
			t.Fatalf("reduce=%v: %d sleep entries seen in the frontier", reduce, slept)
		}
		for h, hash := range claimedUnder {
			r := Ref{e.tree, h.idx}
			if h.state != nil || h.sleepLen != 0 {
				t.Fatalf("reduce=%v: expanded entry at depth %d still holds state %v / a sleep set of %d", reduce, r.Depth(), h.state, h.sleepLen)
			}
			if r.Hash() != hash {
				t.Fatalf("reduce=%v: tree entry hash %#x, claimed under %#x", reduce, r.Hash(), hash)
			}
		}
		vs := e.Violations(start)
		if len(vs) == 0 {
			t.Fatal("no violation to replay")
		}
		for _, v := range vs {
			if got := applyPath(t, s, start, v.Path).Hash(); got != v.StateHash || len(v.Path) != v.Depth {
				t.Fatalf("reduce=%v: path of %d events replays to %#x, violation reports %#x at depth %d", reduce, len(v.Path), got, v.StateHash, v.Depth)
			}
		}
	}
}

// TestRetainedHeapPerClaimedState pins what a finished search keeps alive
// per claimed state, in bytes and in heap objects. The model is one node
// ticking a counter: a chain of states whose last one violates. What stays
// per state is a 32-byte tree entry and its visited and local-state table
// slots — slab chunks and flat tables, not an object per state; the
// same chain with states pinned measures 815 B per state, and the pointerful
// Node tree this replaced 207 B and two objects.
func TestRetainedHeapPerClaimedState(t *testing.T) {
	const depth = 20000
	g := NewGState()
	g.AddNode(1, newToy(1), sm.TimerSet{"tick"})
	s := NewSearch(Config{
		Props: poisonAt(depth), Factory: newToy, Mode: Exhaustive,
		Budget: Budget{Depth: depth, Workers: 1},
	})
	heap := func() (bytes, objects uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.HeapObjects
	}
	bytesBefore, objectsBefore := heap()
	e := s.NewEngine(s.Config().Budget, HashRange{}, nil)
	e.Inject(Forward{State: g})
	if err := e.Drain(nil); err != nil {
		t.Fatal(err)
	}
	bytesAfter, objectsAfter := heap()
	if e.Claimed() != depth+1 || len(e.Findings()) != 1 {
		t.Fatalf("claimed %d states with %d findings, want a %d-state chain ending in one", e.Claimed(), len(e.Findings()), depth+1)
	}
	perState := float64(int64(bytesAfter)-int64(bytesBefore)) / float64(e.Claimed())
	objects := float64(int64(objectsAfter)-int64(objectsBefore)) / float64(e.Claimed())
	t.Logf("retained %.0f B and %.4f heap objects per claimed state", perState, objects)
	const maxPerState, maxObjects = 130, 0.05
	if perState > maxPerState {
		t.Fatalf("search retains %.0f B per claimed state, want <= %d: is an expanded state pinned again?", perState, maxPerState)
	}
	if objects > maxObjects {
		t.Fatalf("search retains %.4f heap objects per claimed state, want <= %.2f: the tree is slabs, not objects", objects, maxObjects)
	}
	// And the engine's own account of what it keeps — slab chunks and claim
	// tables at their exact size (Result's mem=) — is what the heap says, not
	// a guess at a flat 16 bytes an entry.
	accounted := e.tree.bytes() + e.visited.bytes() + e.locals.bytes()
	if ratio := float64(accounted) / float64(int64(bytesAfter)-int64(bytesBefore)); ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("engine accounts %d B retained, the heap holds %d (ratio %.2f)", accounted, int64(bytesAfter)-int64(bytesBefore), ratio)
	}
	if vs := e.Violations(g); len(vs[0].Path) != depth {
		t.Fatalf("the violation's path has %d events, want %d", len(vs[0].Path), depth)
	}
	runtime.KeepAlive(e)
}

// selfLoopStart is twoNodeStart with an idle timer at node 1: firing it
// leads back to the state it fired in.
func selfLoopStart() *GState {
	g := NewGState()
	a, b := newToy(1).(*toy), newToy(2).(*toy)
	a.peers[2] = true
	b.peers[1] = true
	g.AddNode(1, a, sm.NewTimerSet("idle", "tick"))
	g.AddNode(2, b, sm.TimerSet{"tick"})
	g.AddMessage(1, 2, ping{N: 1})
	return g
}

// TestSelfLoopIsCountedNotProposed: a transition back into a state claimed
// at the expanding node's depth or shallower runs its handler and is
// counted, but no child is proposed for it; and rejecting it early changes
// nothing the barrier would have decided — claimed set and local states
// equal the unreduced run's, and transitions and sleep hits are the same at
// every worker count.
func TestSelfLoopIsCountedNotProposed(t *testing.T) {
	cfg := Config{
		Props: poisonAt(1000), Factory: newToy, Mode: Exhaustive, ExploreResets: true,
		RecordClaimedStates: true, RecordLocalStates: true,
		Budget: Budget{Depth: 5, Workers: 1},
	}
	s := NewSearch(cfg)
	start := selfLoopStart()
	e := s.NewEngine(cfg.Budget, HashRange{}, nil)
	e.Inject(Forward{State: start})
	bucket, depth := e.fr.popBucket()
	e.expandWindow(bucket, 0, 1, depth)
	var children []proposal
	for j := e.outs[0].lo; j < e.outs[0].hi; j++ {
		children = append(children, *e.xs[0].props.at(int(j)))
	}
	network, internal := s.EnabledEvents(start)
	enabled := len(network)
	for _, evs := range internal {
		enabled += len(evs)
	}
	if got := int(e.ctr.transitions.Load()); got != enabled {
		t.Fatalf("expanding the start state counted %d transitions, %d are enabled", got, enabled)
	}
	if len(children) != enabled-1 {
		t.Fatalf("%d children proposed for %d transitions, want all but the self-loop", len(children), enabled)
	}
	for _, c := range children {
		if c.state.Hash() == start.Hash() {
			t.Fatalf("self-loop proposed as a child through %s", c.desc)
		}
	}

	var unreduced *Result
	for _, reduce := range []bool{false, true} {
		var serial *Result
		for _, workers := range []int{1, 2, 4} {
			c := cfg
			c.Reduce, c.Budget.Workers = reduce, workers
			res := NewSearch(c).Run(selfLoopStart())
			if unreduced == nil {
				unreduced = res
			}
			if serial == nil {
				serial = res
			}
			if !reflect.DeepEqual(res.ClaimedStates, unreduced.ClaimedStates) || !reflect.DeepEqual(res.LocalStates, unreduced.LocalStates) {
				t.Fatalf("reduce=%v workers=%d: %d claimed / %d local states, unreduced serial run has %d / %d",
					reduce, workers, len(res.ClaimedStates), len(res.LocalStates), len(unreduced.ClaimedStates), len(unreduced.LocalStates))
			}
			if res.Transitions != serial.Transitions || res.SleepHits != serial.SleepHits {
				t.Fatalf("reduce=%v workers=%d: %d transitions / %d sleep hits, one worker made %d / %d",
					reduce, workers, res.Transitions, res.SleepHits, serial.Transitions, serial.SleepHits)
			}
		}
		if reduce && serial.SleepHits == 0 {
			t.Fatal("reduced run slept nothing: the comparison is vacuous")
		}
	}
}

// TestTimerSetSharedUntilChanged walks every transition of a small search —
// deliveries, self-re-arming and one-shot timers, application calls, resets —
// and checks the timer set's sharing rule on each: a successor whose handler
// left the set equal to its parent's (never touched it, or consumed a timer
// and re-armed it) holds the parent's very set, and one whose handler
// changed it holds an exact-size set of its own that does not alias it. Every node the event did not execute at stays the
// parent's *NodeState. All three cases must occur, or the walk shows nothing.
func TestTimerSetSharedUntilChanged(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy, ExploreResets: true, MaxResetsPerPath: 1})
	var untouched, rearmed, changed int
	seen := map[uint64]bool{}
	level := []*GState{multiTimerStart()}
	for depth := 0; depth < 4; depth++ {
		var next []*GState
		for _, g := range level {
			network, internal := s.EnabledEvents(g)
			events := network
			for _, id := range g.Nodes() {
				events = append(events, internal[id]...)
			}
			for _, ev := range events {
				succ := s.ApplyEvent(g, ev)
				if succ == nil {
					continue
				}
				at := ev.Node
				ran := ev.Kind != 'D'
				for i := range g.nodes {
					p, c := g.nodes[i], succ.nodes[i]
					id := p.id
					if !ran || id != at {
						if p != c {
							t.Fatalf("%s: node %v, which the event did not run at, was rebuilt", ev.Describe(), id)
						}
						continue
					}
					shared := sameSet(p.Timers, c.Timers)
					switch fired := ev.Kind == 'T'; {
					case !p.Timers.Equal(c.Timers):
						changed++
						if len(c.Timers) > 0 && len(p.Timers) > 0 && &c.Timers[0] == &p.Timers[0] {
							t.Fatalf("%s: timer set changed from %v to %v but still aliases the parent's", ev.Describe(), p.Timers, c.Timers)
						}
						if cap(c.Timers) != len(c.Timers) {
							t.Fatalf("%s: changed timer set %v has capacity %d, want an exact-size copy", ev.Describe(), c.Timers, cap(c.Timers))
						}
					case !shared:
						t.Fatalf("%s: timer set %v equals the parent's but was copied", ev.Describe(), c.Timers)
					case fired:
						rearmed++
					default:
						untouched++
					}
				}
				if h := succ.Hash(); !seen[h] {
					seen[h] = true
					next = append(next, succ)
				}
			}
		}
		level = next
	}
	if untouched == 0 || rearmed == 0 || changed == 0 {
		t.Fatalf("walk saw %d untouched, %d re-armed and %d changed timer sets, want some of each", untouched, rearmed, changed)
	}
	t.Logf("%d states: %d untouched, %d re-armed, %d changed timer sets", len(seen), untouched, rearmed, changed)
}
