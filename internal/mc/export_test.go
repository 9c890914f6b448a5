package mc

import (
	"fmt"
	"reflect"
	"testing"
)

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
					if got.Unbuilt = want.Unbuilt; !reflect.DeepEqual(got, want) {
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

// CapRun is what a state-bounded serial search did, for comparison with the
// constants recorded before the state budget capped the queue: the sizes and
// wrapping sums of the claimed and local state sets, the transitions
// executed and the violations reported.
type CapRun struct {
	Claimed, Locals         int
	ClaimedSum, LocalSum    uint64
	Transitions, Violations int
}

// StateBudgetRun runs cfg from start under Budget{States: states, Depth:
// depth} and checks what holds at every worker count: after every bucket no
// more nodes are queued than the budget can still admit (plus the workers-1
// the engine may admit out of order), and a search the budget cut short
// explored exactly states states and ends Exhausted for that reason — while
// one that ran out of states first does not.
func StateBudgetRun(t *testing.T, cfg Config, start *GState, states, depth, workers int) CapRun {
	t.Helper()
	cfg.Budget = Budget{States: states, Depth: depth, Workers: workers}
	s := NewSearch(cfg)
	e := s.NewEngine(cfg.Budget, HashRange{}, nil)
	e.Inject(Forward{State: start})
	if err := e.Drain(func() error {
		if left := states - e.bdg.statesAdmitted(); e.fr.count > left+workers-1 {
			t.Fatalf("States=%d workers=%d: %d nodes queued with %d units of the budget left", states, workers, e.fr.count, left)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res := e.Result()
	res.Violations = e.Violations(start)
	if cut := e.Claimed() > res.StatesExplored; cut != e.Exhausted() || cut != (res.StopReason == "states") || (cut && res.StatesExplored != states) {
		t.Fatalf("States=%d workers=%d: claimed %d, explored %d, exhausted %v, stop %q", states, workers, e.Claimed(), res.StatesExplored, e.Exhausted(), res.StopReason)
	}
	run := CapRun{Claimed: e.Claimed(), Locals: res.DistinctLocalStates, Transitions: res.Transitions, Violations: len(res.Violations)}
	for _, h := range e.ClaimedStates() {
		run.ClaimedSum += h
	}
	for _, h := range e.LocalStates() {
		run.LocalSum += h
	}
	return run
}

// CountInternal is the enumeration's count-only mode over every node of g:
// the number of internal actions enabled there, with no event built.
func (s *Search) CountInternal(g *GState) (n int) {
	for i := range g.nodes {
		n += s.internalAt(g, i, nil, nil)
	}
	return n
}

// queuedAt calls visit for every state queued at depth, in queue order.
func (e *Engine) queuedAt(depth int, visit func(r Ref, h *held)) {
	for i, n := 0, e.fr.len(depth); i < n; i++ {
		h := e.fr.buckets[depth].at(i)
		visit(Ref{e.tree, h.idx}, h)
	}
}

// CheckPathOracle is the path oracle over every claimed state, not only the
// violating ones: cfg, bounded by depth only, runs from start at 1 and 2
// workers with the claim window at 1, 7 and the default, and after each run
// every entry of the engine's tree — there must be exactly one per claimed
// state — has a Path that resolves from start, holds Depth() events, and
// reaches the entry's hash. It returns the number of states claimed.
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
			if claimed = e.Claimed(); e.tree.entries.n != claimed || e.Exhausted() {
				t.Fatalf("workers=%d window=%d: %d tree entries for %d claimed states (exhausted: %v)", workers, window, e.tree.entries.n, claimed, e.Exhausted())
			}
			x := s.NewExpander()
			for i := 0; i < e.tree.entries.n; i++ {
				r := Ref{e.tree, int32(i)}
				path, g, err := r.Path(s, x, start)
				if err != nil {
					t.Fatalf("workers=%d window=%d: entry %d at depth %d: %v", workers, window, i, r.Depth(), err)
				}
				if len(path) != r.Depth() || g.Hash() != r.Hash() {
					t.Fatalf("workers=%d window=%d: entry %d: %d-event path reaches %#x, entry is %#x at depth %d", workers, window, i, len(path), g.Hash(), r.Hash(), r.Depth())
				}
			}
		}
	}
	return claimed
}
