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
// bound, only to check): the one place a *GState and a sleep set are kept,
// in 24 bytes. A worker clears state the moment the entry is expanded. The
// sleep set (reduce.go) is no slice of its own but a run of the bucket's
// sleep storage, sleepLen values from sleepAt (bucket.sleepOf): the claim
// pass that follows the entry's expansion reads it (its children's promises
// inherit from it), and it is let go with the bucket. An entry whose sleep
// set is empty has no use for sleepAt, which counts instead the clean leaves
// queued in its bucket before it (frontier.push) — none but at the depth
// bound, where every sleep set is empty. A clean leaf has no entry: it is a
// fingerprint in the leaf set and a count in its bucket.
type held struct {
	state    *GState
	sleepAt  uint32
	sleepLen uint32
	idx      int32 // the state's tree entry
}

// bucket is one depth's queue: its held entries and the storage their sleep
// sets are runs of. Both are slabs, so queueing a level of a million states
// copies nothing and a level of ten costs ten entries. A sleep set is written
// once, by the claim pass that queues its state (Tree.childSleep reserves the
// run, which never straddles a chunk), and only ever shrinks in place after
// (Engine.narrow): an intersection is a subset. clean counts the clean leaves
// queued at the bucket's depth, the depth bound, which hold no entry; with
// each entry's count of those before it, it is what admits them in the order
// they were claimed (Engine.admitClean).
type bucket struct {
	held  slab[held]
	sleep slab[uint32]
	clean int
}

// cleanBefore returns how many clean leaves were queued in b before its
// entry pos, or in all if pos is past the last entry.
func (b *bucket) cleanBefore(pos int) int {
	if pos < b.held.n {
		return int(b.held.at(pos).sleepAt)
	}
	return b.clean
}

// sleepOf returns h's sleep set, h an entry of b: a run of b's storage, nil
// for the empty set.
func (b *bucket) sleepOf(h *held) []uint32 {
	if h.sleepLen == 0 {
		return nil
	}
	return b.sleep.run(int(h.sleepAt), int(h.sleepLen))
}

// frontier is the engine's depth-bucketed work pool, drained lowest bucket
// first. For one range with no injected arrivals a bucket is exactly a BFS
// level; in a sharded search states arrive at any depth, and draining
// shallow work first keeps expansion near breadth-first order, which
// minimizes re-expansions (a state re-arrives shallower less often). A
// bucket that is done with is emptied — entries and sleep storage alike —
// and kept in spare for another depth to fill (recycle), so a search in a
// reused workspace queues its states and their sleep sets in storage it
// already has.
type frontier struct {
	buckets []*bucket
	spare   []*bucket
	low     int
	count   int
}

// at returns depth's bucket, making an empty one (a spare one if there is
// one) if depth has none.
func (f *frontier) at(depth int) *bucket {
	for depth >= len(f.buckets) {
		f.buckets = append(f.buckets, nil)
	}
	if f.buckets[depth] == nil {
		if n := len(f.spare); n > 0 {
			f.buckets[depth] = f.spare[n-1]
			f.spare = f.spare[:n-1]
		} else {
			f.buckets[depth] = &bucket{held: slab[held]{shift: heldShift}, sleep: slab[uint32]{shift: sleepShift}}
		}
	}
	return f.buckets[depth]
}

// push queues h at depth and returns its position in the bucket. If h's
// sleep set is empty, its sleepAt records the clean leaves queued at depth so
// far.
func (f *frontier) push(depth int, h held) int {
	b := f.add(depth)
	if h.sleepLen == 0 {
		h.sleepAt = uint32(b.clean)
	}
	return b.held.push(h)
}

// pushClean queues a clean leaf at depth: a count, not an entry.
func (f *frontier) pushClean(depth int) { f.add(depth).clean++ }

// add counts one more state queued at depth and returns depth's bucket.
func (f *frontier) add(depth int) *bucket {
	b := f.at(depth)
	if f.count == 0 || depth < f.low {
		f.low = depth
	}
	f.count++
	return b
}

// recycle empties b, a bucket popBucket returned, and keeps it spare. What a
// stop left in its entries — states — is let go.
func (f *frontier) recycle(b *bucket) {
	b.held.reset()
	b.sleep.reset()
	b.clean = 0
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

// peek returns depth's bucket, nil if it has none.
func (f *frontier) peek(depth int) *bucket {
	if depth >= len(f.buckets) {
		return nil
	}
	return f.buckets[depth]
}

// len returns the number of states queued at depth, clean leaves included.
func (f *frontier) len(depth int) int {
	b := f.peek(depth)
	if b == nil {
		return 0
	}
	return b.held.n + b.clean
}

// popBucket removes and returns the lowest non-empty bucket and its depth.
func (f *frontier) popBucket() (*bucket, int) {
	for f.len(f.low) == 0 {
		f.low++
	}
	b := f.buckets[f.low]
	f.buckets[f.low] = nil
	f.count -= b.held.n + b.clean
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
// and, until it is expanded, a held entry of the frontier — or, a clean leaf
// at the depth bound, a fingerprint in the leaf set and a count in its
// bucket; nothing else is kept per state. During a sweep the workers read
// the tree, the tables and the bucket being drained, and each writes only its
// own Expander's buffers (proposals, explored sibling keys, clean leaves'
// local hashes, the proposed set — values, reused every window — and the
// scratch it builds successors in), the window slot of the position it
// expands, and the state field of the held entry it expands. Between sweeps
// the draining goroutine alone writes: the claim pass appends tree entries,
// interns event descriptors (the only place that happens, with Inject),
// builds sleep sets in the storage of the bucket it queues into, queues held
// entries and clean leaves, and updates the tables and the leaf set. A
// proposal the claim pass rejects leaves nothing behind; a held state is
// released by the worker that expands it, and its sleep set with its bucket.
// The pristine services resets copy are built once, by the first Inject, and
// only read from then on.
//
// A successor is built in its worker's scratch (scratch.go) and published to
// the heap only if the claim pass can claim it. Its fingerprint is exact
// before it is published, and expand looks it up first: one the visited
// table already holds at the parent's depth or shallower is dropped unbuilt,
// and one held at the child's own depth — or proposed by the same worker
// earlier in the window — is proposed without a state, for the claim pass to
// narrow (see fate).
//
// A child at Budget.Depth is only ever property-checked, so the worker that
// builds it checks it there, in its scratch, before anything of it is on the
// heap. A clean one is never published and costs one fingerprint: it is
// proposed with the local hash of the node its event executed at, which the
// claim pass records, and claimed into the leaf set — no tree entry, no
// interned descriptor, no held entry; its bucket counts it. That is hash
// compaction (Stern and Dill) at the one level the search never expands, and
// it loses nothing: visited, too, tells claimed states apart by their 64-bit
// fingerprints alone. A violating leaf is published, claimed into the tree —
// its path must replay — and queued with its state like any other child.
// Either way a leaf is admitted, reported and counted when its bucket is
// drained, in the order the claim pass claimed it (admitClean). A leaf
// another range owns is published, since the sink forwards the state.
//
// A child with at least as many states queued ahead of it as Budget.States
// has units left is never held, since it can never be admitted: it enters the
// tables and the tree but not the queue, and the engine ends Exhausted once
// that queue drains. Nor can any child claimed after it: each later admission
// spends one unit and takes one state off what is queued ahead, and a queue
// never shrinks while its bucket is claimed into, so the refusal holds for
// every later window and bucket. A capped engine that owns the whole space
// therefore expands nothing further: it admits, checks and reports every
// queued state and builds no successor. A shard's cap is its own range's, so
// a sharded engine keeps forwarding.
//
// visited maps a fingerprint to the tree entry that claimed it, whose depth
// is the minimal depth it was claimed at; a strictly shallower arrival
// re-claims (a new entry) and re-expands, which restores exactly the subtree
// a depth-bounded BFS explores. Within one range that never fires (buckets
// drain in depth order); it is what makes a sharded search, where states
// arrive from other shards at any depth, claim the same set as the serial
// one. A state claimed as a clean leaf and arriving shallower is claimed into
// visited like any other and leaves the leaf set (claim), so every claimed
// fingerprint is in exactly one of the two.
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
// fingerprint. It is nil too for a clean leaf, which the claim pass claims
// into the leaf set, a fingerprint with no tree entry.
type proposal struct {
	state *GState
	hash  uint64      // the successor's fingerprint
	desc  sm.EventKey // the transition from the parent (sm.DescOf)
	// sibs is how many of the parent's explored siblings the child sleeps on
	// if they are independent of desc (reduce.go); negative when the child
	// starts with an empty sleep set.
	sibs int32
	// leaf marks a clean leaf: 1 + the index in the worker's leaves of the
	// local hash of the node its event executed at. 0 for any other proposal.
	leaf int32
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
	lo, hi       int32 // x.props' values lo to hi-1
	sibLo, sibHi int32 // x.sibs[sibLo:sibHi]
	violated     uint64
}

// Expander is one worker's reusable per-state storage: the property-check
// view, the event-enumeration buffers and the scratch successors are built in
// are recycled across every state the worker processes, and what it proposes
// for a window lives in buffers recycled across windows, so the per-state
// path allocates only for the successors it publishes. Those buffers grow
// without copying what they hold: the proposals are a slab, and the sibling
// keys — one contiguous run per parent, so a slice — are sized for each
// window from the last one's (sizeSibs). Check and Events
// expose the same two steps to callers outside the engine (path replay in
// internal/dist, the benchmark's layer probes). An Expander is not safe for
// concurrent use.
type Expander struct {
	s      *Search
	view   *props.View
	evb    eventBuf
	sc     *scratch       // where successors are built (scratch.go)
	enc    *sm.Encoder    // app-call and payload fingerprint scratch: sc's encoder, used between builds
	props  slab[proposal] // this window's proposals
	sibs   []sm.EventKey  // this window's explored siblings, per parent in order (reduction; sizeSibs)
	leaves []uint64       // this window's clean leaves: the executed node's local hash (proposal.leaf)
	sleep  []*sm.EventKey // the expanding state's sleep set, resolved (reduction)
	claims []localClaim   // consequence (node, local state) claims awaiting the end of the bucket
	rsts   []sm.NodeID    // the nodes an RST is in flight to in the expanding state (consequence, conn breaks on)
	// proposed is the set of fingerprints this worker proposed in the current
	// window.
	proposed hashSet
	// expanded counts the positions the worker expanded in the current
	// window, and sibRate is the room sizeSibs gives a position in sibs.
	expanded, sibRate int
}

// sizeSibs empties sibs for a window of which x expands about n positions,
// with room for them at a quarter above the sibling rate of x's last window.
// A parent's siblings must be one run of sibs, so the buffer is a slice and
// growing it copies; sized from the rate, a fresh Expander grows it about
// once — at the first windows that fill up — instead of once per append
// growth step.
func (x *Expander) sizeSibs(n int) {
	if x.expanded > 0 {
		x.sibRate = (len(x.sibs)*5/4 + x.expanded - 1) / x.expanded
	}
	x.expanded = 0
	x.sibs = slices.Grow(x.sibs[:0], x.sibRate*n)
}

// NewExpander returns a fresh Expander bound to the search.
func (s *Search) NewExpander() *Expander {
	sc := newScratch()
	sc.memo = newMemo()
	return &Expander{s: s, view: props.NewView(), sc: sc, enc: &sc.enc, props: slab[proposal]{shift: propShift}}
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
	return ent != nil && int(ent.depth) <= depth || e.leafAt(h, depth)
}

// leafAt reports whether h is claimed as a clean leaf at depth or shallower:
// the leaf set's fingerprints were claimed at the depth bound.
//
//crystal:hotpath
func (e *Engine) leafAt(h uint64, depth int) bool {
	return depth >= e.bdg.lim.Depth && e.leafSet.has(h)
}

// claim records that tree entry idx claims h. In a sharded search h may have
// been claimed as a clean leaf before, deeper; it leaves the leaf set.
//
//crystal:hotpath
func (e *Engine) claim(h uint64, idx int32) {
	e.visited.put(h, idx, e.tree)
	e.leafSet.remove(h)
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
	e.claim(f.State.Hash(), idx)
	// A chain root (the start state, or a state that arrived from another
	// engine) records every node's local state; a successor, only the one its
	// event produced (claimPass).
	for _, ns := range f.State.nodes {
		e.locals.put(ns.localHash())
	}
	// No event adds or removes a node, so the first state injected names
	// every node a reset will ever restart.
	if e.s.cfg.ExploreResets && len(e.pristine) == 0 {
		for _, ns := range f.State.nodes {
			e.pristine[ns.id] = e.s.cfg.Factory(ns.id)
		}
	}
	e.hold(idx, f.State, 0, 0)
	return Ref{e.tree, idx}, true
}

// hold queues a claimed state whose sleep set is the run of sleepLen values
// from sleepAt in its bucket's storage, and accounts its bytes until it is
// expanded: the held entry, the run and the state's encoded footprint.
//
//crystal:hotpath
func (e *Engine) hold(idx int32, g *GState, sleepAt, sleepLen uint32) {
	bytes := heldEntryBytes + 4*int64(sleepLen) + int64(g.EncodedSize())
	atomicMax(&e.ctr.peakBytes, e.ctr.frontierBytes.Add(bytes))
	ent := e.tree.entries.at(int(idx))
	ent.pos = int32(e.fr.push(int(ent.depth), held{state: g, sleepAt: sleepAt, sleepLen: sleepLen, idx: idx}))
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
		for lo := 0; lo < bucket.held.n && !e.bdg.exhausted(); lo += e.window {
			n := min(e.window, bucket.held.n-lo)
			e.expandWindow(bucket, lo, n, depth)
			if err := e.claimPass(bucket, lo, depth+1, bucket.held.n-lo-n); err != nil {
				return err
			}
			if e.windowDone != nil {
				e.windowDone()
			}
		}
		e.admitClean(bucket, bucket.held.n, depth) // the clean leaves after the last entry
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

// expandWindow expands the n positions of bucket, the one at depth, from lo,
// leaving what each proposed in e.outs (the zero expansion for a position the
// budget did not admit). Up to Budget.Workers workers, each with its own
// Expander, sweep the window, pulling positions from e.cursor (expandNodes);
// with a single worker (or a single position) the sweep runs inline, in
// order — the paper's FIFO search.
//
//crystal:hotpath
func (e *Engine) expandWindow(bucket *bucket, lo, n, depth int) {
	if cap(e.outs) < n {
		e.outs = make([]expansion, n)
	}
	e.outs = e.outs[:n]
	clear(e.outs)
	workers := min(e.workers, n)
	for _, x := range e.xs {
		x.props.reset()
		x.sizeSibs((n + workers - 1) / workers)
		x.leaves = x.leaves[:0]
		x.proposed.clear()
	}
	e.cursor.Store(0)
	if workers <= 1 {
		e.expandNodes(bucket, lo, n, depth, e.xs[0])
		return
	}
	e.wg.Add(workers)
	for _, x := range e.xs[:workers] {
		go e.share(bucket, lo, n, depth, x)
	}
	e.wg.Wait()
}

// share is one worker's goroutine in a sweep.
func (e *Engine) share(bucket *bucket, lo, n, depth int, x *Expander) {
	defer e.wg.Done()
	e.expandNodes(bucket, lo, n, depth, x)
}

// expandNodes is one worker's share of expandWindow: each position is
// admitted after the clean leaves queued before it. A held entry lets go of
// its state the moment its expansion returns: from then on the search needs
// only the tree entry — paths replay from descriptors — so nothing retained
// pins an expanded GState.
//
//crystal:hotpath
func (e *Engine) expandNodes(bucket *bucket, lo, n, depth int, x *Expander) {
	for {
		i := int(e.cursor.Add(1)) - 1
		if i >= n || e.bdg.exhausted() || !e.admitClean(bucket, lo+i, depth) || !e.bdg.admitState() {
			return
		}
		h := bucket.held.at(lo + i)
		x.expanded++
		e.outs[i] = e.expand(h, bucket.sleepOf(h), x)
		h.state = nil
	}
}

// admitClean admits, a state budget unit each, the clean leaves queued in b
// (the bucket at depth) after its entry pos-1 and before its entry pos — past
// the last entry if pos is b.held.n — and reports whether it admitted them
// all. A clean leaf was checked where it was built, so admitting it is all
// that is left: it counts in StatesExplored and MaxDepthReached, in the order
// it was claimed among the entries that hold states.
//
//crystal:hotpath
func (e *Engine) admitClean(b *bucket, pos, depth int) bool {
	if b.clean == 0 {
		return true
	}
	run := b.cleanBefore(pos)
	if pos > 0 {
		run -= b.cleanBefore(pos - 1)
	}
	admitted := 0
	for admitted < run && e.bdg.admitState() {
		admitted++
	}
	if admitted > 0 {
		atomicMax(&e.ctr.maxDepth, int64(depth))
	}
	return admitted == run
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
// admit up to workers-1 positions out of order, which the cap forgoes). Every
// claim enters the tables here, between windows on the goroutine driving
// Drain, which is why they need no lock.
//
// A clean leaf (proposal.leaf) is claimed without a state: its fingerprint
// enters the leaf set, its executed node's local hash enters locals, and its
// bucket counts it, for admitClean to admit. It gets no tree entry and no
// held entry. Any other proposal without a state (Engine.fate) must find its
// fingerprint claimed here: its worker proposed it knowing it is already
// claimed or is claimed by an earlier proposal of its own. If it is not, the
// claim pass fails the drain rather than claim a state it does not have.
//
//crystal:hotpath
func (e *Engine) claimPass(bucket *bucket, lo, depth, rest int) error {
	leaves := depth == e.bdg.lim.Depth
	for i := range e.outs {
		out := &e.outs[i]
		if out.x == nil {
			continue
		}
		parent := bucket.held.at(lo + i)
		inherited := bucket.sleepOf(parent)
		sibs := out.x.sibs[out.sibLo:out.sibHi]
		e.sibIDs = append(e.sibIDs[:0], make([]uint32, len(sibs))...)
		for j := out.lo; j < out.hi; j++ {
			// Past the wall deadline nothing claimed here would ever be
			// expanded: stop claiming, checking every few thousand children.
			if e.proposals++; e.proposals%claimClockEvery == 0 && e.bdg.expired() {
				return nil
			}
			p := out.x.props.at(int(j))
			h := p.hash
			if !e.own.Contains(h) {
				if err := e.forward(Forward{State: p.state, Depth: depth, Parent: Ref{e.tree, parent.idx}, Desc: p.desc}); err != nil {
					return err
				}
				continue
			}
			promised := promise{inherited: inherited, enter: p.desc}
			if p.sibs >= 0 {
				promised.siblings = sibs[:p.sibs]
			}
			if prior, ent := e.visited.get(h, e.tree); ent != nil && int(ent.depth) <= depth {
				if e.reduce {
					e.narrow(prior, depth, promised, p.sibs >= 0)
				}
				continue
			}
			if e.leafAt(h, depth) {
				continue // a clean leaf has no sleep set to narrow
			}
			if p.state == nil && p.leaf == 0 {
				return errUnclaimed(h, depth)
			}
			// A successor differs from its parent in at most the node its
			// event executed at, so its claim records that one local state (a
			// drop executes at none); with the chain roots' (Inject), the
			// union is every local state of every claimed state.
			if p.desc.Kind != 'D' {
				e.locals.put(out.x.local(p))
			}
			if p.leaf > 0 {
				e.leafSet.put(h)
				if e.reachable(rest, depth) {
					e.fr.pushClean(depth)
				}
				continue
			}
			idx := e.tree.child(parent.idx, p.desc, h, depth, out.violated)
			e.claim(h, idx)
			if !e.reachable(rest, depth) {
				continue
			}
			// A child at the depth bound is checked but never expanded, so
			// its sleep set would never be read.
			var at, n uint32
			if p.sibs >= 0 && !leaves {
				at, n = e.tree.childSleep(promised, e.sibIDs, &e.fr.at(depth).sleep)
			}
			e.hold(idx, p.state, at, n)
		}
		// The parent's set is consumed; its run is let go with the bucket.
		parent.sleepLen = 0
	}
	// The buffers outlive the window: drop their claim on the states.
	for _, x := range e.xs {
		x.props.reset()
	}
	return nil
}

// reachable reports whether the state budget can still admit a child the
// claim pass claims at depth, with rest positions of the bucket being drained
// and the states queued at depth admitted before it (see Engine). A child it
// cannot reach caps the engine and is not queued.
//
//crystal:hotpath
func (e *Engine) reachable(rest, depth int) bool {
	if e.bdg.lim.States > 0 && rest+e.fr.len(depth) >= e.bdg.statesLeft() {
		e.capped = true
		return false
	}
	return true
}

// local returns the local hash of the node p's event executed at, in the
// successor p proposes; p's event is not a drop.
func (x *Expander) local(p *proposal) uint64 {
	if p.leaf > 0 {
		return x.leaves[p.leaf-1]
	}
	return p.state.Node(p.desc.Node).localHash()
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
	b := e.fr.peek(depth)
	if int(ent.depth) != depth || ent.pos < 0 || b == nil || int(ent.pos) >= b.held.n {
		return
	}
	q := b.held.at(int(ent.pos))
	if q.idx != prior || q.sleepLen == 0 {
		return
	}
	was := q.sleepLen
	if promises {
		q.sleepLen = uint32(len(e.tree.intersectSleep(b.sleepOf(q), promised)))
	} else {
		q.sleepLen = 0
	}
	e.ctr.frontierBytes.Add(-4 * int64(was-q.sleepLen))
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
// window's claim pass claims them. The children of a state one step above the
// depth bound are leaves, and each one this engine owns and would publish is
// property-checked where it is built, in x's scratch: a clean leaf is
// proposed without a state (cleanLeaf) and never arrives here, a violating
// one is published. A state admitted after the state budget capped a
// whole-space engine is only checked. Consequence (node, local state) claims
// go to x.claims for the merge at the end of the bucket. With reduction on,
// network transitions slept by the state's sleep set are skipped —
// recognised from the enumerated key, before any handler runs — and each
// proposal records the sleep set it is promised (reduce.go).
//
//crystal:hotpath
func (e *Engine) expand(h *held, sleep []uint32, x *Expander) expansion {
	r := Ref{e.tree, h.idx}
	depth := r.Depth()
	atomicMax(&e.ctr.maxDepth, int64(depth))
	state := h.state
	e.ctr.frontierBytes.Add(-heldEntryBytes - 4*int64(len(sleep)) - int64(state.EncodedSize()))

	out := expansion{x: x, lo: int32(x.props.n), sibLo: int32(len(x.sibs)), violated: r.entry().violated}
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
	// whether it is proposed and whether it is published, and a leaf is
	// published only if it violates a property. With promise the child sleeps
	// on the siblings explored so far, and once its handler ran ev joins them.
	sc := x.sc
	leaves := depth+1 == e.bdg.lim.Depth
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
			switch {
			case !publish:
			case leaves && e.own.Contains(h) && e.clean(next, x):
				p.leaf = x.cleanLeaf(state, ev)
			default:
				p.state = sc.publish(state)
			}
			x.props.push(p)
		}
		if promise {
			x.sibs = append(x.sibs, ev.EventKey)
		}
	}

	// H_M: always process all network handlers (Figure 8 line 13) — minus,
	// under reduction, the transitions this state's sleep set proves are
	// commuting-square duplicates of a sibling branch.
	x.sleep = x.sleep[:0]
	for _, id := range sleep {
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
	out.hi, out.sibHi = int32(x.props.n), int32(len(x.sibs))
	return out
}

// clean reports whether next, a successor in x's scratch, holds every
// property.
//
//crystal:hotpath
func (e *Engine) clean(next *GState, x *Expander) bool {
	next.FillView(x.view)
	return e.s.violatedBits(x.view) == 0
}

// cleanLeaf keeps of a clean leaf, the successor x's scratch built from
// parent through ev, what its claim needs: the local hash of the node ev
// executed at (none for a drop) goes to x.leaves, and a handler effect
// pending for the memo is recorded as publish would record it (heapNode). It
// returns the leaf's proposal.leaf.
//
//crystal:hotpath
func (x *Expander) cleanLeaf(parent *GState, ev *sm.Event) int32 {
	sc := x.sc
	var local uint64
	if ev.Kind != 'D' {
		local = sc.next.Node(ev.Node).localHash()
	}
	if sc.pending.key.Kind != 0 {
		sc.heapNode(parent)
	}
	x.leaves = append(x.leaves, local)
	return int32(len(x.leaves))
}

// fate decides what becomes of a successor with fingerprint h that x built
// from a state at depth: whether it is proposed to the claim pass and, if
// so, whether it is published for it. The visited table is not written
// during expansion, so what it says holds for the claim pass too.
//
//   - Outside the owned range the successor is published and proposed: the
//     sink sends the state.
//   - Claimed at depth or shallower, or claimed as a clean leaf at the
//     child's depth (the bound), the claim pass would reject it and narrow
//     nothing: it is dropped.
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
	if e.leafAt(h, depth+1) {
		return false, false
	}
	return x.proposed.put(h), true
}

// Exhausted reports whether a budget bound (or the violation quota) has
// stopped the search; a drained frontier alone does not count.
func (e *Engine) Exhausted() bool { return e.bdg.exhausted() }

// Claimed returns the number of distinct states claimed so far, clean leaves
// included.
func (e *Engine) Claimed() int { return e.visited.n + e.leafSet.len() }

// ClaimedStates returns the sorted fingerprints of the claimed states, clean
// leaves included (differential oracles compare the sets).
func (e *Engine) ClaimedStates() []uint64 {
	out := append(e.visited.fingerprints(e.tree), e.leafSet.sorted()...)
	slices.Sort(out)
	return out
}

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
	// the claim tables and the leaf set, the frontier's entries and sleep sets
	// at their peak; only the held states are an estimate (their encoded
	// footprint, Figure 15's measure).
	res.PeakMemoryBytes = e.ctr.peakBytes.Load() + e.tree.bytes() +
		e.visited.bytes() + e.leafSet.bytes() + e.local.bytes() + e.locals.bytes()
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
// set: its held entry in the bucket's slab. Its sleep set costs four bytes an
// entry of the bucket's storage.
const heldEntryBytes = int64(unsafe.Sizeof(held{}))
