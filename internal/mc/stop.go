package mc

import (
	"sync/atomic"
	"time"
)

// counters is the engine's shared telemetry block: exact atomic tallies of
// work done (transitions executed) and work avoided (consequence local
// prunes, sleep-set hits, successors never published), plus the frontier's byte accounting. All are
// updated by expansion workers, hence atomic.
type counters struct {
	transitions   atomic.Int64
	localPrunes   atomic.Int64
	sleepHits     atomic.Int64
	unbuilt       atomic.Int64
	maxDepth      atomic.Int64
	frontierBytes atomic.Int64
	peakBytes     atomic.Int64
}

// Budget is the resource envelope for one exploration — the paper's
// StopCriterion plus the worker count that spends it: the search stops when
// any non-zero bound is reached, and Workers goroutines spend the budget.
// The zero value of a field means unbounded (Workers: GOMAXPROCS).
type Budget struct {
	// States bounds checked states (Result.StatesExplored).
	States int
	// Depth bounds search depth.
	Depth int
	// Wall bounds wall-clock time.
	Wall time.Duration
	// Violations stops the search after this many distinct violating
	// states; the reported list is additionally deduplicated by
	// Signature.
	Violations int
	// Workers is the exploration worker-pool size (0 = GOMAXPROCS). With
	// one worker the breadth-first strategies reproduce the paper's
	// serial search exactly.
	Workers int
}

// budget is the shared, atomically-updated accounting of one search run
// against its Budget — the paper's StopCriterion, which the runtime hands to
// consequence prediction so a round always finishes within a snapshot
// interval. Every worker consults it before admitting a state; the counters
// are exact (a rejected admission is rolled back), so bounded runs never
// overshoot regardless of worker count.
type budget struct {
	lim      Budget
	now      func() time.Time // injected clock (Config.Now)
	began    time.Time
	deadline time.Time // zero when Wall is unbounded
	states   atomic.Int64
	// halted is zero while the search runs and then the first bound that
	// tripped (an index into stopNames); later halts do not overwrite it.
	halted atomic.Int32
}

// The bounds that stop a search, in budget.halted's encoding.
const (
	stopStates = iota + 1
	stopWall
	stopViolations
)

// FrontierEmpty is the StopReason of a search no bound stopped: it ran out
// of states.
const FrontierEmpty = "frontier-empty"

var stopNames = [...]string{0: FrontierEmpty, stopStates: "states", stopWall: "wall", stopViolations: "violations"}

// newBudget starts the accounting clock by reading now once; the same
// injected clock serves the Wall deadline checks and Result.Elapsed, so a
// fake clock exercises wall-budget expiry deterministically.
func newBudget(b Budget, now func() time.Time) *budget {
	bdg := &budget{lim: b, now: now, began: now()}
	if b.Wall > 0 {
		bdg.deadline = bdg.began.Add(b.Wall)
	}
	return bdg
}

// elapsed reports the wall time consumed so far, per the injected clock.
func (b *budget) elapsed() time.Duration { return b.now().Sub(b.began) }

// claimClockEvery is how many proposed children the claim passes handle
// between two reads of the wall deadline.
const claimClockEvery = 4096

// claimWindow is how many positions of a depth bucket are expanded between
// two claim passes: what bounds the proposed successors alive at once.
const claimWindow = 1024

// expired reads the clock — only when a Wall is set — and halts the search
// once the deadline has passed.
func (b *budget) expired() bool {
	if b.deadline.IsZero() || !b.now().After(b.deadline) {
		return false
	}
	b.halt(stopWall)
	return true
}

// admitState atomically claims one unit of the state budget; it returns
// false when the budget (states or wall clock) is exhausted.
func (b *budget) admitState() bool {
	if b.exhausted() || b.expired() {
		return false
	}
	if n := b.states.Add(1); b.lim.States > 0 && n > int64(b.lim.States) {
		b.states.Add(-1)
		b.halt(stopStates)
		return false
	}
	return true
}

// halt marks the budget exhausted by bound why (one of the stop constants).
func (b *budget) halt(why int32) { b.halted.CompareAndSwap(0, why) }

// exhausted reports whether some bound tripped.
func (b *budget) exhausted() bool { return b.halted.Load() != 0 }

// stopReason names the bound that stopped the search (FrontierEmpty when
// none did).
func (b *budget) stopReason() string { return stopNames[b.halted.Load()] }

// statesAdmitted returns the number of states admitted so far.
func (b *budget) statesAdmitted() int { return int(b.states.Load()) }

// statesLeft returns the unspent units of a bounded state budget.
func (b *budget) statesLeft() int { return b.lim.States - b.statesAdmitted() }
