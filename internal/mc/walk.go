package mc

import (
	"cmp"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"crystalball/internal/sm"
)

// walkSeen is the random walks' report-dedup set: the one table in the
// checker that workers write concurrently (walks have no barrier), hence the
// one that keeps a mutex.
type walkSeen struct {
	mu sync.Mutex
	m  map[uint64]struct{}
}

// add inserts h and reports whether it was absent.
func (w *walkSeen) add(h uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, dup := w.m[h]
	w.m[h] = struct{}{}
	return !dup
}

// randomWalks is RandomWalk mode: cfg.Walks random walks of up to
// cfg.WalkDepth steps (MaceMC's random-walk mode, used in the paper's
// section 5.3 comparison), distributed across the worker pool. Each walk
// derives its random stream from (Seed, walk index), not from the worker
// that happens to run it, so the same walks are explored at any worker
// count.
func (s *Search) randomWalks(start *GState) *Result {
	workers := s.cfg.Budget.Workers
	bdg := newBudget(s.cfg.Budget, s.cfg.Now)
	coll := newCollector(s.cfg.Budget.Violations)
	// seen dedups reports by (violating state, signature): the same state
	// reached by different walks can carry different onsets and final
	// events, and keying on the pair keeps the recorded set independent
	// of which walk happens to arrive first.
	seen := &walkSeen{m: make(map[uint64]struct{})}
	var nextWalk, transitions, maxDepth atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker reusable workspace, shared by all walks this
			// goroutine runs.
			x := s.NewExpander()
			// This worker's walks, as chains. Shared: the collector compares
			// findings across workers, so another worker reads entries this
			// one recorded (before it reported them) while it keeps appending.
			tree := newTree(true)
			for {
				walk := int(nextWalk.Add(1)) - 1
				if walk >= s.cfg.Walks || bdg.exhausted() {
					return
				}
				runWalk(s, start, walk, bdg, coll, seen, &transitions, &maxDepth, x, tree)
			}
		}()
	}
	wg.Wait()

	return &Result{
		Violations:      coll.violations(s, start),
		StatesExplored:  bdg.statesAdmitted(),
		Transitions:     int(transitions.Load()),
		MaxDepthReached: int(maxDepth.Load()),
		Elapsed:         bdg.elapsed(),
		StopReason:      cmp.Or(bdg.stopReason(), "walks"),
	}
}

// runWalk performs one random walk of up to cfg.WalkDepth steps, using
// x's reusable view and enumeration buffers and recording the walk in tree
// as a chain from a root of its own, so a finding names its path the way an
// engine's does.
func runWalk(s *Search, start *GState, walk int, bdg *budget, coll *collector,
	seen *walkSeen, transitions, maxDepth *atomic.Int64, x *Expander, tree *Tree) {
	// A fixed odd multiplier spreads walk indices across seed space
	// (splitmix64's golden-ratio increment).
	rng := sm.NewRand(s.cfg.Seed ^ int64(walk+1)*-0x61c8864680b583eb)
	g, at := start, Ref{tree, tree.root(Forward{State: start})}
	var walkViolated uint64
	for depth := 0; depth < s.cfg.WalkDepth; depth++ {
		if !bdg.admitState() {
			return
		}
		atomicMax(maxDepth, int64(depth))
		g.FillView(x.view)
		if bits := s.violatedBits(x.view); bits&^walkViolated != 0 {
			onset := s.propNames(bits&^walkViolated, x.view)
			walkViolated |= bits
			sig := signature(onset, at.last())
			sigHash := fnv.New64a()
			sigHash.Write([]byte(sig))
			if seen.add(at.Hash()^sigHash.Sum64()) && coll.record(sig, onset, at) {
				bdg.halt(stopViolations)
				return
			}
		}
		all := x.evb.all[:0]
		x.each(g, func(c *cand) bool {
			all = append(all, *c)
			return true
		})
		x.evb.all = all
		if len(all) == 0 {
			return
		}
		// Try events in random order until one applies.
		perm := rng.Perm(len(all))
		var next *GState
		var chosen *cand
		for _, i := range perm {
			if next = s.applyEvent(g, all[i].event(), true, x.sc); next != nil {
				chosen = &all[i]
				break
			}
		}
		if next == nil {
			return
		}
		transitions.Add(1)
		at = Ref{tree, tree.child(at.i, chosen.desc(x.enc), next.Hash(), depth+1, 0)}
		g = next
	}
}
