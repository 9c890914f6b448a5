package mc

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"crystalball/internal/sm"
)

// ApplyIn builds the successor of g under ev, an event enumerated at g, in
// x's scratch — through x's handler memo — and publishes it: the memo-warm
// side of the memo oracle, against ApplyEvent's pooled scratch, which never
// memoizes.
func (s *Search) ApplyIn(x *Expander, g *GState, ev sm.Event) *GState {
	return s.applyEvent(g, &ev, true, x.sc)
}

// HandlerRuns returns how many handlers x's scratch has run.
func (x *Expander) HandlerRuns() int { return int(x.sc.runs) }

// ItemFields is one in-flight item field for field: its endpoints, queue
// position, component hash, footprint and message encoding (hex).
type ItemFields struct {
	From, To sm.NodeID
	Pos      int
	CHash    uint64
	Size     int
	Encoding string
}

// Items returns g's in-flight items, in container order, the container g's
// own; fields describes each.
func (g *GState) Items() (items []*InFlight, fields []ItemFields) {
	for _, m := range g.msgs {
		e := sm.NewEncoder()
		m.encode(e)
		fields = append(fields, ItemFields{From: m.From, To: m.To, Pos: int(m.pos), CHash: m.chash, Size: int(m.sz), Encoding: fmt.Sprintf("%x", e.Bytes())})
	}
	return g.msgs, fields
}

// InFlightCount reports the number of in-flight items.
func (g *GState) InFlightCount() int { return len(g.msgs) }

// fullEncodedSize recomputes EncodedSize from scratch; the differential
// oracle for the incremental bookkeeping.
func (g *GState) fullEncodedSize() int {
	n := 0
	for _, ns := range g.nodes {
		n += 4 + int(ns.encLen)
	}
	for _, m := range g.msgs {
		n += 13
		if m.Msg != nil {
			n += m.Msg.Size()
		}
	}
	return n + 16*len(g.stale)
}

// MarkStale records that `from` holds a stale socket to `peer` (peer reset
// while from was connected); the hash oracle's stand-in for a peer reset.
func (g *GState) MarkStale(from, peer sm.NodeID) {
	g.edit(func(next *GState, sc *scratch) { next.setStale(pair{from, peer}, sc) })
}

// Stale reports whether from's socket to peer is stale.
func (g *GState) Stale(from, peer sm.NodeID) bool {
	_, present := findPair(g.stale, pair{from, peer})
	return present
}

// len returns the number of keys present.
func (t *table) len() int {
	if t.zero {
		return t.n + 1
	}
	return t.n
}

// sorted returns the keys present in ascending order.
func (t *table) sorted() []uint64 {
	return (&hashSet{keys: t.keys, n: t.n, zero: t.zero}).sorted()
}

// wholeBucket is a claim window no bucket outgrows: the barrier the engine
// had before it claimed in windows.
const wholeBucket = 1 << 30

// CheckWindowIndependence is the window-independence oracle, shared by the
// toy model (this package's tests) and the real services (package mc_test,
// which cannot reach the unexported window). For both breadth-first modes
// with Reduce off and on it runs cfg from start with the claim window at
// 1, 7, the default and the whole bucket, at 1, 2 and 4 workers, and
// requires every run's result — claimed and local state sets, transitions,
// sleep hits, local prunes, states explored, depth, and the violations with
// their paths and state hashes — to equal the serial whole-bucket run's.
// Result.Unbuilt is the exception: a worker proposes a fingerprint it
// proposed before without building it, but two workers both build theirs,
// so it must equal the serial count at one worker and not exceed it at more.
// Result.HandlerRuns must equal the serial count at one worker; at more it
// depends on which worker's memo met which state first, and is not compared.
// cfg must bound the search by depth only. In each mode named in spans the
// widest bucket must hold at least three default windows, so the default
// window is a many-window run there and not the whole-bucket run again.
func CheckWindowIndependence(t *testing.T, cfg Config, start *GState, spans ...Mode) {
	t.Helper()
	cfg.RecordClaimedStates, cfg.RecordLocalStates = true, true
	run := func(window, workers int) (res *Result, widest int) {
		c := cfg
		c.Budget.Workers = workers
		s := NewSearch(c)
		e := s.NewEngine(c.Budget, HashRange{}, nil)
		e.window = window
		e.Inject(Forward{State: start})
		claimed := e.Claimed()
		if err := e.Drain(func() error {
			widest = max(widest, e.Claimed()-claimed)
			claimed = e.Claimed()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		res = e.Result()
		res.Violations = e.Violations(start)
		// What legitimately depends on the window (the peak of what is held)
		// or on the clock.
		res.PeakMemoryBytes, res.PerStateBytes, res.Elapsed = 0, 0, 0
		return res, widest
	}
	for _, mode := range []Mode{Exhaustive, Consequence} {
		for _, reduce := range []bool{false, true} {
			cfg.Mode, cfg.Reduce = mode, reduce
			name := fmt.Sprintf("%v reduce=%v", mode, reduce)
			want, widest := run(wholeBucket, 1)
			for _, m := range spans {
				if m == mode && widest < 3*claimWindow {
					t.Fatalf("%s: widest bucket claims %d states, want at least three windows of %d", name, widest, claimWindow)
				}
			}
			if want.StopReason != "frontier-empty" || len(want.ClaimedStates) < 100 {
				t.Fatalf("%s: reference run claimed %d states and stopped on %q", name, len(want.ClaimedStates), want.StopReason)
			}
			for _, window := range []int{1, 7, claimWindow, wholeBucket} {
				for _, workers := range []int{1, 2, 4} {
					got, _ := run(window, workers)
					if got.Unbuilt > want.Unbuilt || (workers == 1 && got.Unbuilt != want.Unbuilt) {
						t.Errorf("%s window=%d workers=%d: %d successors unbuilt, serial whole-bucket run %d", name, window, workers, got.Unbuilt, want.Unbuilt)
					}
					if workers == 1 && got.HandlerRuns != want.HandlerRuns {
						t.Errorf("%s window=%d: %d handlers run, serial whole-bucket run %d", name, window, got.HandlerRuns, want.HandlerRuns)
					}
					got.Unbuilt, got.HandlerRuns = want.Unbuilt, want.HandlerRuns
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s window=%d workers=%d: %d claimed, %d local states, %d transitions, %d sleep hits, %d local prunes, %d explored, depth %d, %d violations; serial whole-bucket run: %d, %d, %d, %d, %d, %d, %d, %d",
							name, window, workers,
							len(got.ClaimedStates), len(got.LocalStates), got.Transitions, got.SleepHits, got.LocalPrunes, got.StatesExplored, got.MaxDepthReached, len(got.Violations),
							len(want.ClaimedStates), len(want.LocalStates), want.Transitions, want.SleepHits, want.LocalPrunes, want.StatesExplored, want.MaxDepthReached, len(want.Violations))
					}
				}
			}
		}
	}
}

// CapRun is what a state-bounded serial search did, for comparison with
// recorded constants: the sizes and wrapping sums of the claimed and local
// state sets, the transitions executed and the violations reported. Checked
// is what it checked, which the cap must never move.
type CapRun struct {
	Claimed, Locals         int
	ClaimedSum, LocalSum    uint64
	Transitions, Violations int
}

// Checked is what a state-bounded serial search checked and found: the
// states it admitted — their number and the wrapping sum of their
// fingerprints — the depth it reached, and its violations' signatures in
// report order.
type Checked struct {
	States     int
	Sum        uint64
	Depth      int
	Signatures string
}

// StateBudgetRun runs cfg from start under Budget{States: states, Depth:
// depth} and checks what holds at every worker count: after every bucket no
// more nodes are queued than the budget can still admit (plus the workers-1
// the engine may admit out of order), and a search the budget cut short
// explored exactly states states and ends Exhausted for that reason — while
// one that ran out of states first does not. It returns what the search
// claimed and what it checked; with one worker every queued state is
// admitted, so the states queued after each bucket are the states checked.
// Checked.Sum covers the queued states that hold an entry: a depth-bounded
// run's clean leaves are counted in Checked.States alone.
func StateBudgetRun(t *testing.T, cfg Config, start *GState, states, depth, workers int) (CapRun, Checked) {
	t.Helper()
	cfg.Budget = Budget{States: states, Depth: depth, Workers: workers}
	s := NewSearch(cfg)
	e := s.NewEngine(cfg.Budget, HashRange{}, nil)
	e.Inject(Forward{State: start})
	checked, level := Checked{States: 1, Sum: start.Hash()}, 0
	if err := e.Drain(func() error {
		if left := states - e.bdg.statesAdmitted(); e.fr.count > left+workers-1 {
			t.Fatalf("States=%d workers=%d: %d nodes queued with %d units of the budget left", states, workers, e.fr.count, left)
		}
		level++
		e.queuedAt(level, func(r Ref, _ *held) {
			checked.States++
			checked.Sum += r.Hash()
		})
		checked.States += e.cleanAt(level)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res := e.Result()
	res.Violations = e.Violations(start)
	if cut := e.Claimed() > res.StatesExplored; cut != e.Exhausted() || cut != (res.StopReason == "states") || (cut && res.StatesExplored != states) {
		t.Fatalf("States=%d workers=%d: claimed %d, explored %d, exhausted %v, stop %q", states, workers, e.Claimed(), res.StatesExplored, e.Exhausted(), res.StopReason)
	}
	if workers == 1 && checked.States != res.StatesExplored {
		t.Fatalf("States=%d: %d states queued, %d explored", states, checked.States, res.StatesExplored)
	}
	run := CapRun{Claimed: e.Claimed(), Locals: res.DistinctLocalStates, Transitions: res.Transitions, Violations: len(res.Violations)}
	for _, h := range e.ClaimedStates() {
		run.ClaimedSum += h
	}
	for _, h := range e.LocalStates() {
		run.LocalSum += h
	}
	checked.Depth = res.MaxDepthReached
	sigs := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		sigs[i] = v.Signature()
	}
	checked.Signatures = strings.Join(sigs, "; ")
	return run, checked
}

// CheckCapStopsQueueing runs cfg from start under Budget{States: states} at
// 1 and 4 workers with the claim window at 1, 7 and the default, and fails
// if a claim pass after the one that first kept a claimed child out of the
// queue (Engine.capped) queues a child: from then on no depth's queue grows.
// Every run must be capped, and must end at the state budget.
func CheckCapStopsQueueing(t *testing.T, cfg Config, start *GState, states int) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		for _, window := range []int{1, 7, claimWindow} {
			cfg.Budget = Budget{States: states, Workers: workers}
			s := NewSearch(cfg)
			e := s.NewEngine(cfg.Budget, HashRange{}, nil)
			e.window = window
			e.Inject(Forward{State: start})
			// Each depth's queue after the last claim pass; nil until capped.
			var lens []int
			e.windowDone = func() {
				for d := 0; lens != nil && d < len(e.fr.buckets); d++ {
					was := 0
					if d < len(lens) {
						was = lens[d]
					}
					if e.fr.len(d) > was {
						t.Fatalf("workers=%d window=%d: a claim pass after the cap queued %d children at depth %d", workers, window, e.fr.len(d)-was, d)
					}
				}
				if e.capped {
					lens = make([]int, len(e.fr.buckets))
					for d := range lens {
						lens[d] = e.fr.len(d)
					}
				}
			}
			if err := e.Drain(nil); err != nil {
				t.Fatal(err)
			}
			if res := e.Result(); !e.capped || res.StopReason != "states" || res.StatesExplored != states {
				t.Fatalf("workers=%d window=%d: capped %v, %d states explored, stop %q: want a run the cap ends", workers, window, e.capped, res.StatesExplored, res.StopReason)
			}
		}
	}
}

// CountInternal is the enumeration's count-only mode over every node of g:
// the number of internal actions enabled there, with no event built.
func (s *Search) CountInternal(g *GState) (n int) {
	for i := range g.nodes {
		k, _ := s.internalAt(g, i, nil, nil)
		n += k
	}
	return n
}

// SplitCount is the consequence rule's two counts of the internal actions
// enabled at g's i-th node: Full is internalAt's walk; Split is what a pruned
// node adds — stored, the local count of whichever state first reached the
// node's local state (claims records it by local fingerprint), plus
// prunedAt's per-state terms. The two must agree on every state. ResetLeft
// and RSTEnabled say which per-state terms the node has: a reset the path
// may still take, and conn breaks an in-flight RST enables as deliveries.
func (s *Search) SplitCount(g *GState, i int, claims map[uint64]int) (c struct {
	Full, Split           int
	ResetLeft, RSTEnabled bool
}) {
	full, local := s.internalAt(g, i, nil, nil)
	lh := g.nodes[i].localHash()
	stored, ok := claims[lh]
	if !ok {
		stored, claims[lh] = local, local
	}
	c.Full = full
	c.Split = s.prunedAt(g, i, stored, slices.Contains(rstTargets(g, nil), g.nodes[i].id))
	c.ResetLeft = s.cfg.ExploreResets && g.resets < s.cfg.MaxResetsPerPath
	reset := 0
	if c.ResetLeft {
		reset = 1
	}
	c.RSTEnabled = full < local+reset
	return c
}

// queuedAt calls visit for every held entry queued at depth, in queue order:
// every queued state but the clean leaves, which have none.
func (e *Engine) queuedAt(depth int, visit func(r Ref, h *held)) {
	b := e.fr.peek(depth)
	for i := 0; b != nil && i < b.held.n; i++ {
		h := b.held.at(i)
		visit(Ref{e.tree, h.idx}, h)
	}
}

// cleanAt returns the number of clean leaves queued at depth.
func (e *Engine) cleanAt(depth int) int {
	if b := e.fr.peek(depth); b != nil {
		return b.clean
	}
	return 0
}

// CheckPathOracle is the path oracle over every claimed state, not only the
// violating ones: cfg, bounded by depth only, runs from start at 1 and 2
// workers with the claim window at 1, 7 and the default, and after each run
// every entry of the engine's tree — there must be exactly one per claimed
// state but the clean leaves — has a Path that resolves from start, holds
// Depth() events, and reaches the entry's hash. A clean leaf has no entry and
// no path: its fingerprint must be a successor's of an entry one level above
// the bound. It returns the number of states claimed.
func CheckPathOracle(t *testing.T, cfg Config, start *GState) int {
	t.Helper()
	claimed := 0
	for _, workers := range []int{1, 2} {
		for _, window := range []int{1, 7, claimWindow} {
			cfg.Budget.Workers = workers
			s := NewSearch(cfg)
			e := s.NewEngine(cfg.Budget, HashRange{}, nil)
			e.window = window
			e.Inject(Forward{State: start})
			if err := e.Drain(nil); err != nil {
				t.Fatal(err)
			}
			if claimed = e.Claimed(); e.tree.entries.n+e.leafSet.len() != claimed || e.Exhausted() {
				t.Fatalf("workers=%d window=%d: %d tree entries and %d clean leaves for %d claimed states (exhausted: %v)", workers, window, e.tree.entries.n, e.leafSet.len(), claimed, e.Exhausted())
			}
			x := s.NewExpander()
			successors := map[uint64]bool{}
			for i := 0; i < e.tree.entries.n; i++ {
				r := Ref{e.tree, int32(i)}
				path, g, err := s.ReplayKeys(x, start, r.Keys())
				if err != nil {
					t.Fatalf("workers=%d window=%d: entry %d at depth %d: %v", workers, window, i, r.Depth(), err)
				}
				if len(path) != r.Depth() || g.Hash() != r.Hash() {
					t.Fatalf("workers=%d window=%d: entry %d: %d-event path reaches %#x, entry is %#x at depth %d", workers, window, i, len(path), g.Hash(), r.Hash(), r.Depth())
				}
				if r.Depth() == cfg.Budget.Depth-1 {
					x.Events(g, func(ev sm.Event) {
						if next := s.ApplyEvent(g, ev); next != nil {
							successors[next.Hash()] = true
						}
					})
				}
			}
			for _, h := range e.leafSet.sorted() {
				if !successors[h] {
					t.Fatalf("workers=%d window=%d: clean leaf %#x is no successor of a state at depth %d", workers, window, h, cfg.Budget.Depth-1)
				}
			}
		}
	}
	return claimed
}

// CheckLeafOracle is the depth-bound differential oracle. A search bounded at
// depth checks the states it builds at the bound in its scratch and publishes
// only the violating ones; the same search bounded one level deeper
// publishes, holds and expands every state at depth. At 1 and 2 workers,
// cfg from start at both bounds must:
//   - claim the same fingerprints down to depth (the shallower bound claims
//     nothing deeper);
//   - report the same violations down to depth: properties, depth, state
//     hash and replayed path;
//   - and the shallower bound's distinct local states must be those of the
//     states it claimed: the deeper bound's states down to depth, each
//     rebuilt by replaying its tree entry's event from its parent's rebuilt
//     state in a scratch without a memo. The shallower bound's own tree —
//     every state it claimed but the clean leaves — must rebuild the same way.
//
// It returns the violations the shallower bound reports at depth itself.
func CheckLeafOracle(t *testing.T, cfg Config, start *GState, depth int) (atBound []Violation) {
	t.Helper()
	for _, workers := range []int{1, 2} {
		run := func(bound int) (*Engine, *Search, []Violation) {
			c := cfg
			c.Budget = Budget{Depth: bound, Workers: workers}
			s := NewSearch(c)
			e := s.NewEngine(c.Budget, HashRange{}, nil)
			e.Inject(Forward{State: start})
			if err := e.Drain(nil); err != nil {
				t.Fatal(err)
			}
			if e.Exhausted() {
				t.Fatalf("workers=%d depth %d: stopped by %q", workers, bound, e.bdg.stopReason())
			}
			return e, s, e.Violations(start)
		}
		bounded, s, got := run(depth)
		deeper, _, all := run(depth + 1)
		var want []uint64
		for i := 0; i < deeper.tree.entries.n; i++ {
			if ent := deeper.tree.entries.at(i); int(ent.depth) <= depth {
				want = append(want, ent.hash)
			}
		}
		slices.Sort(want)
		if claimed := bounded.ClaimedStates(); !slices.Equal(claimed, want) {
			t.Errorf("workers=%d: bounded at %d, %d states claimed; bounded at %d, %d claimed down to %d", workers, depth, len(claimed), depth+1, len(want), depth)
		}
		shallow := make([]Violation, 0, len(all))
		for _, v := range all {
			if v.Depth <= depth {
				shallow = append(shallow, v)
			}
		}
		if !reflect.DeepEqual(got, shallow) {
			t.Errorf("workers=%d: bounded at %d, violations %v; bounded at %d, down to %d: %v", workers, depth, violationLines(got), depth+1, depth, violationLines(shallow))
		}
		rebuild(t, fmt.Sprintf("workers=%d, bounded at %d", workers, depth), s, bounded.tree, start, depth)
		locals := rebuild(t, fmt.Sprintf("workers=%d, bounded at %d", workers, depth+1), s, deeper.tree, start, depth)
		slices.Sort(locals)
		if wantLocals := slices.Compact(locals); !slices.Equal(bounded.LocalStates(), wantLocals) {
			t.Errorf("workers=%d: bounded at %d, %d distinct local states recorded; its claimed states hold %d", workers, depth, len(bounded.LocalStates()), len(wantLocals))
		}
		atBound = atBound[:0]
		for _, v := range got {
			if v.Depth == depth {
				atBound = append(atBound, v)
			}
		}
	}
	return atBound
}

// rebuild rebuilds the states of tree's entries down to depth, each by
// replaying its entry's event from its parent's rebuilt state in a scratch
// without a memo, fails (naming where) unless each has its entry's hash, and
// returns their local hashes.
func rebuild(t *testing.T, where string, s *Search, tree *Tree, start *GState, depth int) (locals []uint64) {
	t.Helper()
	states := make([]*GState, tree.entries.n)
	x := s.NewExpander()
	for i := range states {
		r := Ref{tree, int32(i)}
		if r.Depth() > depth {
			continue
		}
		if p, ok := r.up(); !ok {
			states[i] = start
		} else {
			ev, err := x.resolve(states[p.i], r.last())
			if err != nil {
				t.Fatalf("%s: entry %d: %v", where, i, err)
			}
			states[i] = s.ApplyEvent(states[p.i], ev)
		}
		if states[i].Hash() != r.Hash() {
			t.Fatalf("%s: entry %d rebuilds to %#x, claimed as %#x", where, i, states[i].Hash(), r.Hash())
		}
		for _, ns := range states[i].nodes {
			locals = append(locals, ns.localHash())
		}
	}
	return locals
}

// violationLines renders violations as "properties at depth d via path".
func violationLines(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%v at depth %d via %d events", v.Properties, v.Depth, len(v.Path))
	}
	return out
}
