package mc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// atomicMax raises *v to x if x is larger (CAS-max).
func atomicMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Finding is one collected violation class before its path is rendered: the
// violated properties and the representative state. A single-range search
// resolves Ref.Keys() into Result.Violations; a sharded search reports
// Ref.Keys() for its coordinator to replay.
type Finding struct {
	Props []string
	Ref   Ref
}

// Classes is the one rule that turns violating states into a report: one
// representative per class key — the state with the least (depth, state
// hash) — ordered by (depth, state hash, key). The result depends on the set
// of states offered, never on their order, so engines at any worker count
// and a coordinator merging any number of shard reports agree. The zero
// value is empty and ready; it is not safe for concurrent use.
type Classes[T any] struct {
	byKey map[string]int
	list  []class[T]
}

type class[T any] struct {
	depth int
	hash  uint64
	key   string
	v     T
}

// compare orders classes by (depth, state hash, key).
func (a *class[T]) compare(b *class[T]) int {
	return cmp.Or(cmp.Compare(a.depth, b.depth), cmp.Compare(a.hash, b.hash), strings.Compare(a.key, b.key))
}

// Add offers v, a violating state at (depth, hash) of class key.
func (c *Classes[T]) Add(key string, depth int, hash uint64, v T) {
	r := class[T]{depth: depth, hash: hash, key: key, v: v}
	if i, seen := c.byKey[key]; seen {
		if r.compare(&c.list[i]) < 0 {
			c.list[i] = r
		}
		return
	}
	if c.byKey == nil {
		c.byKey = make(map[string]int)
	}
	c.byKey[key] = len(c.list)
	c.list = append(c.list, r)
}

// Sorted returns the representatives in (depth, state hash, key) order.
func (c *Classes[T]) Sorted() []T {
	list := slices.Clone(c.list)
	slices.SortFunc(list, func(a, b class[T]) int { return a.compare(&b) })
	out := make([]T, len(list))
	for i := range list {
		out[i] = list[i].v
	}
	return out
}

// collector gathers violations from all workers into Classes, keyed by a
// caller-supplied bug-class signature. For runs bounded only by depth or
// exhaustion the reported set is therefore identical no matter how worker
// interleavings ordered the discoveries; under a Budget.Violations cutoff,
// which violating states fill the quota first — and so the reported
// membership — can still vary with >1 worker, exactly as it varies with the
// processing order of the serial checker. The quota counts violating
// *states* (every record call), not signatures: a search stops quickly once
// violations pile up even when they share one.
type collector struct {
	mu       sync.Mutex
	classes  Classes[Finding]
	recorded int // violating states seen, including signature duplicates
	max      int // Budget.Violations (0 = unbounded)
	// filled flips once the quota is reached; record's lock-free fast path
	// reads it so post-quota workers (which may still be draining violating
	// states from their bucket) stop serializing on the mutex.
	filled atomic.Bool
}

// record merges one violating state into the collection and reports whether
// the violation quota is now (or already was) filled.
func (c *collector) record(sig string, properties []string, r Ref) (quotaFilled bool) {
	if c.filled.Load() {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && c.recorded >= c.max {
		return true
	}
	c.recorded++
	c.classes.Add(sig, r.Depth(), r.Hash(), Finding{Props: properties, Ref: r})
	if c.max > 0 && c.recorded >= c.max {
		c.filled.Store(true)
		return true
	}
	return false
}

// held is a claimed state the engine still has to expand (or, at the depth
// bound, only to admit): the one place a *GState and a sleep set are kept.
// The workers clear state the moment the entry is expanded or found a
// consistent leaf; sleep is read by the claim pass that follows (its
// children's promises inherit from it) and dropped there.
type held struct {
	state *GState
	sleep []uint32 // reduce.go
	idx   int32    // the state's tree entry
}

// frontier is the engine's depth-bucketed work pool, drained lowest bucket
// first. For one range with no injected arrivals a bucket is exactly a BFS
// level; in a sharded search states arrive at any depth, and draining
// shallow work first keeps expansion near breadth-first order, which
// minimizes re-expansions (a state re-arrives shallower less often). A
// bucket is a slab: queueing a level of a million states copies nothing and
// a level of ten costs ten entries. A bucket that is done with is emptied and
// kept in spare for another depth to fill (recycle).
type frontier struct {
	buckets []*slab[held]
	spare   []*slab[held]
	low     int
	count   int
}

// push queues h at depth and returns its position in the bucket.
func (f *frontier) push(depth int, h held) int {
	for depth >= len(f.buckets) {
		f.buckets = append(f.buckets, nil)
	}
	if f.buckets[depth] == nil {
		f.buckets[depth] = f.newBucket()
	}
	if f.count == 0 || depth < f.low {
		f.low = depth
	}
	f.count++
	return f.buckets[depth].push(h)
}

// newBucket returns an empty bucket: a spare one if there is one.
func (f *frontier) newBucket() *slab[held] {
	if n := len(f.spare); n > 0 {
		b := f.spare[n-1]
		f.spare = f.spare[:n-1]
		return b
	}
	return &slab[held]{shift: heldShift}
}

// recycle empties b, a bucket popBucket returned, and keeps it spare. What a
// stop left in its entries — states and sleep sets — is let go.
func (f *frontier) recycle(b *slab[held]) {
	b.reset()
	f.spare = append(f.spare, b)
}

// clear empties the frontier: nothing queued will ever be expanded, and
// every bucket is kept spare.
func (f *frontier) clear() {
	for d, b := range f.buckets {
		if b != nil {
			f.recycle(b)
			f.buckets[d] = nil
		}
	}
	f.low, f.count = 0, 0
}

// len returns the number of states queued at depth.
func (f *frontier) len(depth int) int {
	if depth >= len(f.buckets) || f.buckets[depth] == nil {
		return 0
	}
	return f.buckets[depth].n
}

// popBucket removes and returns the lowest non-empty bucket and its depth.
func (f *frontier) popBucket() (*slab[held], int) {
	for f.len(f.low) == 0 {
		f.low++
	}
	b := f.buckets[f.low]
	f.buckets[f.low] = nil
	f.count -= b.n
	return b, f.low
}

// Engine is the one breadth-first search loop: the paper's Figure 5
// (Exhaustive) and Figure 8 (Consequence) differ by a single pruning rule,
// and a shard of a distributed search is the same loop restricted to a
// HashRange of the fingerprint space. Search.Run drives one Engine over the
// whole space; internal/dist drives one per shard per round, with a sink
// for the successors the range does not own and a hook between buckets to
// exchange batches.
//
// Exploration is bucket-synchronized, and a state is held only while the
// engine still has to expand it. The lowest depth bucket is expanded a
// window of claimWindow positions at a time — in parallel across
// Budget.Workers workers pulling from one shared cursor. Successors are only
// *proposed* during expansion; after each window the visited-set claims
// happen in one deterministic serial pass on the draining goroutine, in
// (bucket position, sibling) order, so every state is claimed at its minimal
// BFS depth by the same representative path at every worker count and window
// size, the proposals alive at once never exceed one window's, and the
// tables — written only between windows — need no locks. Once per bucket
// stays what must not see the bucket's own effects: the consequence (node,
// local state) merge and the between hook. With one worker the engine
// reproduces the serial breadth-first search of the paper exactly, including
// expansion order.
//
// Who owns what. A claimed state is an entry of the engine's Tree (search.go)
// and, until it is expanded, a held entry of the frontier; nothing else is
// kept per state. During a sweep the workers read the tree, the tables and
// the bucket being drained, and each writes only its own Expander's buffers
// (proposals, explored sibling keys, the proposed set — values, reused every
// window — and the scratch it builds successors in), the window slot of the
// position it expands, and the state field of the held entry it expands or
// checks. Between sweeps the draining goroutine alone writes: the claim pass
// appends tree entries, interns event descriptors (the only place that
// happens, with Inject), builds sleep sets, queues held entries and updates
// the tables. A proposal the claim pass rejects leaves nothing behind; a held
// state is released by the worker that expands it (or finds it a consistent
// leaf) and its sleep set by the claim pass after it.
//
// A successor is built in its worker's scratch (scratch.go) and published to
// the heap only if the claim pass can claim it. Its fingerprint is exact
// before it is published, and expand looks it up first: one the visited
// table already holds at the parent's depth or shallower is dropped unbuilt,
// and one held at the child's own depth — or proposed by the same worker
// earlier in the window — is proposed without a state, for the claim pass to
// narrow (see fate).
//
// Two kinds of claimed child are never held. A child at Budget.Depth is only
// ever property-checked, so the workers check it right after the claim pass
// that claimed it: a consistent one stays queued without its state, a
// violating one keeps it; either way it is admitted, reported and counted
// when its bucket is drained, where an unchecked leaf would be. And a child
// with at least as many states queued ahead of it as Budget.States has units
// left can never be admitted: it enters the tables and the tree but not the
// queue, and the engine ends Exhausted once that queue drains. Nor can any
// child claimed after it: each later admission spends one unit and takes one
// state off what is queued ahead, and a queue never shrinks while its
// bucket is claimed into, so the refusal holds for every later window and
// bucket. A capped engine that owns the whole space therefore expands
// nothing further: it admits, checks and reports every queued state and
// builds no successor. A shard's cap is its own range's, so a sharded engine
// keeps forwarding.
//
// visited maps a fingerprint to the tree entry that claimed it, whose depth
// is the minimal depth it was claimed at; a strictly shallower arrival
// re-claims (a new entry) and re-expands, which restores exactly the subtree
// a depth-bounded BFS explores. Within one range that never fires (buckets
// drain in depth order); it is what makes a sharded search, where states
// arrive from other shards at any depth, claim the same set as the serial
// one.
//
// With Config.Reduce on, expansion runs the sleep-set partial-order
// reduction of reduce.go: network transitions slept by the claimed state's
// sleep set are skipped (their targets are commuting-square duplicates of
// states the sibling branch claims at the same level), and children carry
// the filtered, extended sleep sets; a same-level duplicate proposal finds
// the claimed child through visited and narrows its set (intersectSleep).
// Because the claim passes are deterministic, the sleep set attached to a
// claimed state — and therefore the whole reduced exploration — is also
// identical at every worker count.
type Engine struct {
	// Workspace is the storage the engine borrowed: its Expanders, tree,
	// claim tables, frontier and claim-pass buffers.
	*Workspace
	s       *Search
	workers int
	prune   bool // consequence prediction's (node, local state) rule
	reduce  bool // sleep-set partial-order reduction
	own     HashRange
	// forward receives each proposed successor own does not contain (nil
	// when the engine owns the whole space).
	forward func(Forward) error
	bdg     *budget
	coll    *collector
	// window is claimWindow (a field so tests can show the search does not
	// depend on it), and windowDone, when set, runs after every claim pass
	// (a test seam too); cursor hands the window's positions to the workers
	// (wg waits for them), proposals counts the children the claim passes
	// have handled (the wall deadline is read every claimClockEvery of them),
	// and capped records that the state budget kept a claimed child out of
	// the queue (from then on a whole-space engine builds nothing).
	window     int
	windowDone func()
	cursor     atomic.Int64
	wg         sync.WaitGroup
	proposals  int
	capped     bool
	// xs holds one Expander per worker (index 0 doubles as the serial path's
	// and the violations' replay).
	xs  []*Expander
	ctr counters
}

// proposal is a successor a worker built and the claim pass has yet to
// judge. It is a value in the worker's buffer, reused every window: a
// rejected proposal costs its state and nothing else. state is nil when the
// worker knew the claim pass could not claim the successor (Engine.fate): it
// is proposed only so that the claim pass narrows the state that holds its
// fingerprint.
type proposal struct {
	state *GState
	hash  uint64      // the successor's fingerprint
	desc  sm.EventKey // the transition from the parent (sm.DescOf)
	// sibs is how many of the parent's explored siblings the child sleeps on
	// if they are independent of desc (reduce.go); negative when the child
	// starts with an empty sleep set.
	sibs int32
}

// localClaim is a (node, local state) the consequence rule claims: its local
// fingerprint and the number of its internal actions that are a function of
// that local state and the engine's fixed node set alone — its timers, model
// app calls and, with conn breaks on, the neighbours present in the state.
// It is counted where expand enumerates the node's actions anyway; prunedAt
// adds what varies from state to state.
type localClaim struct {
	hash  uint64
	count int32
}

// expansion is what expanding one window position left for the claim pass:
// the proposals and explored sibling keys, as ranges of the expanding
// worker's buffers, and the violated set the children inherit. The zero
// value is a position the budget did not admit.
type expansion struct {
	x            *Expander
	lo, hi       int32 // x.props[lo:hi]
	sibLo, sibHi int32 // x.sibs[sibLo:sibHi]
	violated     uint64
}

// Expander is one worker's reusable per-state storage: the property-check
// view, the event-enumeration buffers and the scratch successors are built in
// are recycled across every state the worker processes, and what it proposes
// for a window lives in buffers recycled across windows, so the per-state
// path allocates only for the successors it publishes. Check and Events
// expose the same two steps to callers outside the engine (path replay in
// internal/dist, the benchmark's layer probes). An Expander is not safe for
// concurrent use.
type Expander struct {
	s      *Search
	view   *props.View
	evb    eventBuf
	sc     *scratch       // where successors are built (scratch.go)
	enc    *sm.Encoder    // app-call and payload fingerprint scratch: sc's encoder, used between builds
	props  []proposal     // this window's proposals
	sibs   []sm.EventKey  // this window's explored siblings, per parent in order (reduction)
	sleep  []*sm.EventKey // the expanding state's sleep set, resolved (reduction)
	claims []localClaim   // consequence (node, local state) claims awaiting the end of the bucket
	rsts   []sm.NodeID    // the nodes an RST is in flight to in the expanding state (consequence, conn breaks on)
	// proposed is the set of fingerprints this worker proposed in the current
	// window.
	proposed table
}

// NewExpander returns a fresh Expander bound to the search.
func (s *Search) NewExpander() *Expander {
	sc := newScratch()
	sc.memo = newMemo()
	return &Expander{s: s, view: props.NewView(), sc: sc, enc: &sc.enc}
}

// Check evaluates the search's property set — local and global — on g
// through the pooled view and returns the violated property names (nil when
// g is consistent). The returned slice is freshly allocated per violation
// and owned by the caller.
func (x *Expander) Check(g *GState) []string {
	g.FillView(x.view)
	return x.s.checkProps(x.view)
}

// Events enumerates the transitions enabled at g in the engine's canonical
// deterministic order — message-handler events in in-flight queue order,
// then per node in sorted id order the internal actions (timers sorted,
// model app calls, resets, conn breaks) — and calls emit for each. emit
// must not reenter Events on the same Expander: the enumeration buffer is
// recycled per call.
func (x *Expander) Events(g *GState, emit func(sm.Event)) {
	x.each(g, func(ev *sm.Event) bool {
		emit(*ev)
		return true
	})
}

// each visits the transitions enabled at g in Events' order, in place in the
// enumeration buffer, until visit returns false; an event is valid until the
// next one is visited.
func (x *Expander) each(g *GState, visit func(*sm.Event) bool) {
	evs := x.s.networkInto(g, &x.evb)
	for i := range evs {
		if !visit(&evs[i]) {
			return
		}
	}
	for n := range g.nodes {
		evs, _ = x.s.internalInto(g, n, &x.evb, x.enc)
		for i := range evs {
			if !visit(&evs[i]) {
				return
			}
		}
	}
}

// NewEngine returns a search loop over the fingerprints in own, spending b.
// Proposed successors outside own go to forward, which must be non-nil
// unless own is the whole space; an error from it aborts Drain. The engine
// starts empty: Inject the start state (and, sharded, every arrival). It is
// built in a fresh Workspace, which it keeps: a Ref into its tree stays valid
// as long as the engine.
//
// With a sink, which path first reaches a state depends on batch arrival
// order, so a violation's onset along "the" path is not a function of the
// search. Such an engine instead records, per violating state, the full
// sorted set of violated properties and deduplicates by that set alone —
// a pure function of the claimed states, hence identical at any shard and
// worker count; representative paths remain scheduling telemetry.
func (s *Search) NewEngine(b Budget, own HashRange, forward func(Forward) error) *Engine {
	return s.newEngine(NewWorkspace(), b, own, forward)
}

// newEngine is NewEngine in w, which the engine borrows.
func (s *Search) newEngine(w *Workspace, b Budget, own HashRange, forward func(Forward) error) *Engine {
	if b.Workers < 1 {
		b.Workers = 1
	}
	return &Engine{
		Workspace: w,
		s:         s,
		workers:   b.Workers,
		prune:     s.cfg.Mode == Consequence,
		reduce:    s.cfg.Reduce,
		own:       own,
		forward:   forward,
		bdg:       newBudget(b, s.cfg.Now),
		coll:      &collector{max: b.Violations},
		xs:        w.borrow(s, b.Workers, forward != nil),
		window:    claimWindow,
	}
}

// Seen reports whether fingerprint h is already claimed at depth or
// shallower — whether injecting such a state would be a duplicate. A
// sharded search asks before injecting an arrival.
//
//crystal:hotpath
func (e *Engine) Seen(h uint64, depth int) bool {
	_, ent := e.visited.get(h, e.tree)
	return ent != nil && int(ent.depth) <= depth
}

// Inject claims f.State into the engine's range as a chain root at f.Depth
// and queues it for expansion, unless the state is already claimed at that
// depth or shallower. It returns the root's Ref and whether it was claimed.
// Inject must not be called while Drain is expanding (the between-buckets
// hook is the place to inject mid-drain).
func (e *Engine) Inject(f Forward) (Ref, bool) {
	if e.Seen(f.State.Hash(), f.Depth) {
		return Ref{}, false
	}
	idx := e.tree.root(f)
	e.claim(idx, f.State)
	e.hold(idx, f.State, nil)
	return Ref{e.tree, idx}, true
}

// hold queues a claimed state and accounts its bytes until it is expanded or
// found a consistent leaf.
//
//crystal:hotpath
func (e *Engine) hold(idx int32, g *GState, sleep []uint32) {
	atomicMax(&e.ctr.peakBytes, e.ctr.frontierBytes.Add(int64(g.EncodedSize())+heldEntryBytes+4*int64(len(sleep))))
	ent := e.tree.entries.at(int(idx))
	ent.pos = int32(e.fr.push(int(ent.depth), held{state: g, sleep: sleep, idx: idx}))
}

// claim enters the state g of tree entry idx in the engine's tables: record
// which entry claimed its fingerprint and fold the node-local state its
// event produced into the coverage set. Every write to the tables happens
// here, between windows on the goroutine driving Drain, which is why they
// need no lock.
//
//crystal:hotpath
func (e *Engine) claim(idx int32, g *GState) {
	ent := e.tree.entries.at(int(idx))
	e.visited.put(ent.hash, idx, e.tree)
	// A successor differs from its parent in at most the node its event
	// executed at, so a claim records that one local state; a chain root (the
	// start state, or a state that arrived from another engine) records every
	// node. The union over all claims is every local state of every claimed
	// state either way.
	if ent.parent < 0 {
		for _, ns := range g.nodes {
			e.locals.put(ns.localHash(), 0)
		}
	} else if k := e.tree.keys.at(int(ent.event)); k.Kind != 'D' { // a drop touches no node
		if ns := g.Node(k.Node); ns != nil {
			e.locals.put(ns.localHash(), 0)
		}
	}
}

// Drain expands the frontier, lowest depth bucket first and each bucket a
// window at a time, until it is empty or the budget is spent. between, when
// non-nil, runs after every bucket's last claim pass: the place a sharded
// search flushes its outgoing batches and injects queued arrivals. The first
// error from the sink or from between stops the drain. The workers' handler
// memos live as long as the drain: what they pin, and their storage, is let
// go when it returns, since the engine outlives it.
func (e *Engine) Drain(between func() error) error {
	defer func() {
		for _, x := range e.xs {
			x.sc.memo.reset()
		}
	}()
	return e.drain(between, false)
}

// drain is Drain's loop. With reuse — a search that hands its workspace back
// when it ends (Search.RunIn) — each drained bucket is emptied and kept spare
// for a deeper one, and the memos are left for the workspace to empty.
// Without, a drained bucket is let go, so the address of a held entry is
// never another's while the engine lives.
func (e *Engine) drain(between func() error, reuse bool) error {
	for e.fr.count > 0 && !e.bdg.exhausted() {
		bucket, depth := e.fr.popBucket()
		for lo := 0; lo < bucket.n && !e.bdg.exhausted(); lo += e.window {
			n := min(e.window, bucket.n-lo)
			e.expandWindow(bucket, lo, n)
			if err := e.claimPass(bucket, lo, depth+1, bucket.n-lo-n); err != nil {
				return err
			}
			if e.windowDone != nil {
				e.windowDone()
			}
		}
		// The consequence (node, local state) claims the workers gathered are
		// merged once the whole bucket is expanded, so the pruning table
		// consults strictly earlier buckets.
		for _, x := range e.xs {
			for _, c := range x.claims {
				e.local.put(c.hash, c.count)
			}
			x.claims = x.claims[:0]
		}
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
		if reuse {
			e.fr.recycle(bucket)
		}
	}
	if e.capped {
		e.bdg.halt(stopStates) // the queue ran dry because the budget capped it
	}
	if e.bdg.exhausted() {
		// Nothing queued will ever be expanded; let the states go.
		e.fr.clear()
	}
	return nil
}

// sweep runs work over n positions of bucket from lo on up to Budget.Workers
// workers, each with its own workspace, and returns when all are done. work
// pulls positions from e.cursor; with a single worker (or a single position)
// it runs inline, in order — the paper's FIFO search.
//
//crystal:hotpath
func (e *Engine) sweep(bucket *slab[held], lo, n int, work func(*Engine, *slab[held], int, int, *Expander)) {
	e.cursor.Store(0)
	workers := min(e.workers, n)
	if workers <= 1 {
		work(e, bucket, lo, n, e.xs[0])
		return
	}
	e.wg.Add(workers)
	for _, x := range e.xs[:workers] {
		go e.share(bucket, lo, n, work, x)
	}
	e.wg.Wait()
}

// share is one worker's goroutine in a sweep.
func (e *Engine) share(bucket *slab[held], lo, n int, work func(*Engine, *slab[held], int, int, *Expander), x *Expander) {
	defer e.wg.Done()
	work(e, bucket, lo, n, x)
}

// expandWindow expands the n positions of bucket from lo, leaving what each
// proposed in e.outs (the zero expansion for a position the budget did not
// admit).
//
//crystal:hotpath
func (e *Engine) expandWindow(bucket *slab[held], lo, n int) {
	if cap(e.outs) < n {
		e.outs = make([]expansion, n)
	}
	e.outs = e.outs[:n]
	clear(e.outs)
	for _, x := range e.xs {
		x.props, x.sibs = x.props[:0], x.sibs[:0]
		x.proposed.clear()
	}
	e.sweep(bucket, lo, n, (*Engine).expandNodes)
}

// expandNodes is one worker's share of expandWindow. A held entry lets go of
// its state the moment its expansion returns: from then on the search needs
// only the tree entry — paths replay from descriptors — so nothing retained
// pins an expanded GState.
//
//crystal:hotpath
func (e *Engine) expandNodes(bucket *slab[held], lo, n int, x *Expander) {
	for {
		i := int(e.cursor.Add(1)) - 1
		if i >= n || e.bdg.exhausted() || !e.bdg.admitState() {
			return
		}
		h := bucket.at(lo + i)
		e.outs[i] = e.expand(h, x)
		h.state = nil
	}
}

// claimPass is the deterministic claim pass that follows a window's
// expansion: e.outs proposes children at depth for the positions of bucket
// from lo, and rest positions of the bucket lie beyond the window. Proposed
// children are claimed — or, outside the owned range, handed to the sink —
// in (bucket position, sibling) order, exactly the serial search's order, so
// the surviving next level, each state's representative parent path and each
// state's sleep set are worker-count and window independent. A claimed child
// is queued unless the state budget cannot reach it: rest + the states
// already queued at its depth are admitted before it (several workers may
// admit up to workers-1 positions out of order, which the cap forgoes).
// Children claimed at the depth bound are then checked by the workers.
//
// A proposal without a state (Engine.fate) must find its fingerprint claimed
// here: its worker proposed it knowing it is already claimed or is claimed
// by an earlier proposal of its own. If it is not, the claim pass fails the
// drain rather than claim a state it does not have.
//
//crystal:hotpath
func (e *Engine) claimPass(bucket *slab[held], lo, depth, rest int) error {
	first := e.fr.len(depth)
	leaves := depth == e.bdg.lim.Depth
	for i := range e.outs {
		out := &e.outs[i]
		if out.x == nil {
			continue
		}
		parent := bucket.at(lo + i)
		sibs := out.x.sibs[out.sibLo:out.sibHi]
		e.sibIDs = append(e.sibIDs[:0], make([]uint32, len(sibs))...)
		for j := out.lo; j < out.hi; j++ {
			// Past the wall deadline nothing claimed here would ever be
			// expanded: stop claiming, checking every few thousand children.
			if e.proposals++; e.proposals%claimClockEvery == 0 && e.bdg.expired() {
				return nil
			}
			p := &out.x.props[j]
			h := p.hash
			if !e.own.Contains(h) {
				if err := e.forward(Forward{State: p.state, Depth: depth, Parent: Ref{e.tree, parent.idx}, Desc: p.desc}); err != nil {
					return err
				}
				continue
			}
			promised := promise{inherited: parent.sleep, enter: p.desc}
			if p.sibs >= 0 {
				promised.siblings = sibs[:p.sibs]
			}
			if prior, ent := e.visited.get(h, e.tree); ent != nil && int(ent.depth) <= depth {
				if e.reduce {
					e.narrow(prior, depth, promised, p.sibs >= 0)
				}
				continue
			}
			if p.state == nil {
				return errUnclaimed(h, depth)
			}
			idx := e.tree.child(parent.idx, p.desc, h, depth, out.violated)
			e.claim(idx, p.state)
			if e.bdg.lim.States > 0 && rest+e.fr.len(depth) >= e.bdg.statesLeft() {
				e.capped = true
				continue
			}
			// A child at the depth bound is checked but never expanded, so
			// its sleep set would never be read.
			var sleep []uint32
			if p.sibs >= 0 && !leaves {
				sleep = e.tree.childSleep(promised, e.sibIDs)
			}
			e.hold(idx, p.state, sleep)
		}
		parent.sleep = nil
	}
	// The buffers outlive the window: drop their claim on the states.
	for _, x := range e.xs {
		clear(x.props)
	}
	if n := e.fr.len(depth) - first; leaves && n > 0 {
		e.sweep(e.fr.buckets[depth], first, n, (*Engine).checkLeaves)
	}
	return nil
}

// errUnclaimed is the claim pass's report of a proposal without a state whose
// fingerprint h nothing claimed at depth.
func errUnclaimed(h uint64, depth int) error {
	return fmt.Errorf("mc: a successor proposed without its state (fingerprint %#x, depth %d) is not claimed", h, depth)
}

// narrow is what a duplicate arrival does to the state it duplicates: if
// prior was claimed at this very depth and is still queued there — claimed
// from the bucket being drained, that is — its sleep set keeps only what the
// arrival's promised set (the empty one unless promises) holds too.
func (e *Engine) narrow(prior int32, depth int, promised promise, promises bool) {
	ent := e.tree.entries.at(int(prior))
	if int(ent.depth) != depth || ent.pos < 0 || int(ent.pos) >= e.fr.len(depth) {
		return
	}
	q := e.fr.buckets[depth].at(int(ent.pos))
	if q.idx != prior || len(q.sleep) == 0 {
		return
	}
	was := len(q.sleep)
	if promises {
		q.sleep = e.tree.intersectSleep(q.sleep, promised)
	} else {
		q.sleep = nil
	}
	e.ctr.frontierBytes.Add(-4 * int64(was-len(q.sleep)))
}

// checkLeaves is one worker's share of checking the children a claim pass
// claimed at the depth bound. A consistent leaf drops its state on the spot;
// a violating one keeps it for expand, which reports it when the leaf bucket
// is drained.
//
//crystal:hotpath
func (e *Engine) checkLeaves(bucket *slab[held], lo, n int, x *Expander) {
	for {
		i := int(e.cursor.Add(1)) - 1
		if i >= n {
			return
		}
		h := bucket.at(lo + i)
		h.state.FillView(x.view)
		if e.s.violatedBits(x.view) == 0 {
			e.ctr.frontierBytes.Add(-int64(h.state.EncodedSize()))
			h.state = nil
		}
	}
}

// reportViolation records the violation found at the state r names — bits is
// what x's view violates — and returns the violated set its children inherit
// (see NewEngine for the two recording rules).
func (e *Engine) reportViolation(r Ref, bits uint64, x *Expander) uint64 {
	if e.forward != nil {
		violated := e.s.propNames(bits, x.view)
		sort.Strings(violated)
		if e.coll.record(strings.Join(violated, "|"), violated, r) {
			e.bdg.halt(stopViolations)
		}
		return 0
	}
	// Report the *onset* of each violation — properties violated here but
	// not on the path so far — then keep exploring, as the paper's search
	// does: a start state that already violates one property must not
	// mask deeper, different bugs.
	path := r.entry().violated
	if bits&^path == 0 {
		return path
	}
	onset := e.s.propNames(bits&^path, x.view)
	if e.coll.record(signature(onset, r.last()), onset, r) {
		e.bdg.halt(stopViolations)
	}
	return path | bits
}

// expand explores one admitted state: check properties, expand successors
// (cloning before every handler invocation, so the shared predecessor state
// is never written), and leave the proposed children in x's buffers — the
// window's claim pass claims them. A leaf found consistent when it was
// claimed has no state and nothing left to do, and a state admitted after
// the state budget capped a whole-space engine is only checked. Consequence
// (node, local state) claims go to x.claims for the merge at the end of the
// bucket. With reduction on, network transitions slept by the state's sleep
// set are skipped — recognised from the enumerated key, before any handler
// runs — and each proposal records the sleep set it is promised (reduce.go).
//
//crystal:hotpath
func (e *Engine) expand(h *held, x *Expander) expansion {
	r := Ref{e.tree, h.idx}
	depth := r.Depth()
	atomicMax(&e.ctr.maxDepth, int64(depth))
	e.ctr.frontierBytes.Add(-heldEntryBytes - 4*int64(len(h.sleep)))
	state := h.state
	if state == nil {
		return expansion{}
	}
	e.ctr.frontierBytes.Add(-int64(state.EncodedSize()))

	out := expansion{x: x, lo: int32(len(x.props)), sibLo: int32(len(x.sibs)), violated: r.entry().violated}
	state.FillView(x.view)
	if bits := e.s.violatedBits(x.view); bits != 0 {
		out.violated = e.reportViolation(r, bits, x)
	}
	if e.bdg.lim.Depth > 0 && depth >= e.bdg.lim.Depth {
		return expansion{}
	}
	// No child claimed after the cap can be queued (see Engine).
	if e.capped && e.forward == nil {
		return expansion{}
	}

	// run executes ev, building the successor in x's scratch; fate says
	// whether it is proposed and whether it is published. With promise the
	// child sleeps on the siblings explored so far, and once its handler ran
	// ev joins them.
	sc := x.sc
	run := func(ev *sm.Event, promise bool) {
		// Once any bound trips, the rest of this expansion is skipped.
		if e.bdg.exhausted() {
			return
		}
		next := e.s.apply(state, ev, true, sc)
		if next == nil {
			return
		}
		e.ctr.transitions.Add(1)
		h := next.Hash()
		publish, propose := e.fate(h, depth, x)
		if !publish {
			e.ctr.unbuilt.Add(1)
		}
		if propose {
			p := proposal{hash: h, desc: sm.DescOf(*ev, x.enc), sibs: -1}
			if promise {
				p.sibs = int32(len(x.sibs)) - out.sibLo
			}
			if publish {
				p.state = sc.publish(state)
			}
			x.props = append(x.props, p)
		}
		if promise {
			x.sibs = append(x.sibs, ev.EventKey)
		}
	}

	// H_M: always process all network handlers (Figure 8 line 13) — minus,
	// under reduction, the transitions this state's sleep set proves are
	// commuting-square duplicates of a sibling branch.
	x.sleep = x.sleep[:0]
	for _, id := range h.sleep {
		x.sleep = append(x.sleep, e.tree.keys.at(int(id)))
	}
	network := e.s.networkInto(state, &x.evb)
	for i := range network {
		if ev := &network[i]; !e.reduce {
			run(ev, false)
		} else if slept(x.sleep, &ev.EventKey) {
			e.ctr.sleepHits.Add(1)
		} else {
			run(ev, true)
		}
	}
	// H_A: internal actions, pruned per (node, local state) in
	// consequence mode (Figure 8 lines 16-20). In exhaustive mode, timers,
	// conn-breaks and app calls participate in the reduction exactly like
	// deliveries: each executes at one node and its enabledness is a
	// function of that node's state alone, so it commutes with every
	// transition at another node. ModelAppCalls(n) depends only on n's
	// service state, and the key's EncodeCall fingerprint pins the exact
	// call, so same-named calls never alias. A reset is never slept and
	// never promises: it invalidates in-flight messages wholesale, so its
	// child starts an empty sleep set (reduce.go).
	//
	// In consequence mode (e.prune) an H_A expansion promises nothing and its
	// child starts an empty sleep set, though the transition may itself BE
	// slept: a promise riding on an edge the (node, local state) rule prunes
	// globally could never close its square (reduce.go's header).
	//
	// The claim is tested before anything is enumerated: of a claimed (node,
	// local state) the rule needs only the number of actions it prunes, and
	// most nodes of most states are claimed. That number is the claim's
	// stored count plus the state's own terms (prunedAt), so a pruned node
	// costs a table lookup, not a walk of its actions.
	if e.prune && e.s.cfg.ExploreConnBreaks {
		x.rsts = rstTargets(state, x.rsts)
	}
	var pruned int64
	for n, ns := range state.nodes {
		if e.prune {
			if local, claimed := e.local.get(ns.localHash()); claimed {
				pruned += int64(e.s.prunedAt(state, n, int(local), slices.Contains(x.rsts, ns.id)))
				continue
			}
		}
		internal, local := e.s.internalInto(state, n, &x.evb, x.enc)
		if len(internal) == 0 {
			continue
		}
		if e.prune {
			x.claims = append(x.claims, localClaim{ns.localHash(), int32(local)})
		}
		for i := range internal {
			if ev := &internal[i]; !e.reduce {
				run(ev, false)
			} else if slept(x.sleep, &ev.EventKey) { // never a reset: none is ever promised
				e.ctr.sleepHits.Add(1)
			} else {
				run(ev, ev.Kind != 'R' && !e.prune)
			}
		}
	}
	if pruned > 0 {
		e.ctr.localPrunes.Add(pruned)
	}
	out.hi, out.sibHi = int32(len(x.props)), int32(len(x.sibs))
	return out
}

// fate decides what becomes of a successor with fingerprint h that x built
// from a state at depth: whether it is proposed to the claim pass and, if
// so, whether it is published for it. The visited table is not written
// during expansion, so what it says holds for the claim pass too.
//
//   - Outside the owned range the successor is published and proposed: the
//     sink sends the state.
//   - Claimed at depth or shallower, the claim pass would reject it and
//     narrow nothing: it is dropped.
//   - Claimed at the child's depth (by an earlier window), or proposed by x
//     earlier in this window, it is proposed without a state: the claim pass
//     only narrows the state that holds h. A worker takes window positions in
//     increasing order and the claim pass walks them in order, so x's first
//     proposal of h is judged before this one and leaves h claimed at the
//     child's depth — claimed children enter visited even when the state
//     budget keeps them out of the queue, and a wall-deadline stop ends the
//     pass before any later proposal is judged.
//   - Otherwise — new to x and not claimed, or claimed only deeper (a
//     sharded search re-claims it shallower) — it is published and proposed.
//
//crystal:hotpath
func (e *Engine) fate(h uint64, depth int, x *Expander) (publish, propose bool) {
	if !e.own.Contains(h) {
		return true, true
	}
	if _, ent := e.visited.get(h, e.tree); ent != nil {
		switch d := int(ent.depth); {
		case d <= depth:
			return false, false
		case d == depth+1:
			return false, true
		}
	}
	return x.proposed.put(h, 0), true
}

// Exhausted reports whether a budget bound (or the violation quota) has
// stopped the search; a drained frontier alone does not count.
func (e *Engine) Exhausted() bool { return e.bdg.exhausted() }

// Claimed returns the number of distinct states claimed so far.
func (e *Engine) Claimed() int { return e.visited.n }

// ClaimedStates returns the sorted fingerprints of the claimed states
// (differential oracles compare the sets).
func (e *Engine) ClaimedStates() []uint64 { return e.visited.fingerprints(e.tree) }

// LocalStates returns the sorted distinct node-local state fingerprints
// over all claimed states.
func (e *Engine) LocalStates() []uint64 { return e.locals.sorted() }

// Findings returns the collected violation classes sorted by (depth, state
// hash, signature).
func (e *Engine) Findings() []Finding {
	e.coll.mu.Lock()
	defer e.coll.mu.Unlock()
	return e.coll.classes.Sorted()
}

// Violations renders the findings with each representative's event path,
// replayed from root — the state every chain of this engine starts at (a
// single-range search's start state). A path that does not reach the state
// it was recorded for means a handler is not a function of (seed, local
// state, event), which the whole checker rests on; the violation is then
// reported without a path rather than with a wrong one. The paths replay on
// the first worker's Expander.
func (e *Engine) Violations(root *GState) []Violation {
	findings := e.Findings()
	out := make([]Violation, len(findings))
	x := e.xs[0]
	for i, f := range findings {
		out[i] = Violation{Properties: f.Props, StateHash: f.Ref.Hash(), Depth: f.Ref.Depth()}
		out[i].Path, _ = e.s.ReplayTo(x, root, f.Ref.Keys(), out[i].StateHash)
	}
	return out
}

// Result summarises the search so far, all but the violations: their paths
// are replayed from the start state, which Violations takes.
func (e *Engine) Result() *Result {
	res := &Result{
		StatesExplored:      e.bdg.statesAdmitted(),
		Transitions:         int(e.ctr.transitions.Load()),
		MaxDepthReached:     int(e.ctr.maxDepth.Load()),
		LocalPrunes:         int(e.ctr.localPrunes.Load()),
		Unbuilt:             int(e.ctr.unbuilt.Load()),
		HandlerRuns:         e.handlerRuns(),
		SleepHits:           int(e.ctr.sleepHits.Load()),
		DistinctLocalStates: e.locals.len(),
		Elapsed:             e.bdg.elapsed(),
		StopReason:          e.bdg.stopReason(),
	}
	res.TransitionsPruned = res.SleepHits + res.LocalPrunes
	if e.s.cfg.RecordLocalStates {
		res.LocalStates = e.LocalStates()
	}
	if e.s.cfg.RecordClaimedStates {
		res.ClaimedStates = e.ClaimedStates()
	}
	// What the engine allocated itself it knows exactly — the tree's slabs,
	// the claim tables, the frontier's entries and sleep sets at their peak;
	// only the held states are an estimate (their encoded footprint, Figure
	// 15's measure).
	res.PeakMemoryBytes = e.ctr.peakBytes.Load() + e.tree.bytes() +
		e.visited.bytes() + e.local.bytes() + e.locals.bytes()
	if res.StatesExplored > 0 {
		res.PerStateBytes = float64(res.PeakMemoryBytes) / float64(res.StatesExplored)
	}
	return res
}

// handlerRuns sums the handlers the workers ran.
func (e *Engine) handlerRuns() int {
	n := int64(0)
	for _, x := range e.xs {
		n += x.sc.runs
	}
	return int(n)
}

// heldEntryBytes is what a queued state costs beside its GState and sleep
// set: its held entry in the bucket's slab.
const heldEntryBytes = int64(unsafe.Sizeof(held{}))
