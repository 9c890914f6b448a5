package mc

import (
	"cmp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
// violated properties and the representative node. A single-range search
// renders Node.Path() into Result.Violations; a sharded search splices the
// wire prefix of Node.Root() in front.
type Finding struct {
	Props []string
	Node  *Node
	sig   string
}

// collector gathers violations from all workers, deduplicating by a
// caller-supplied bug-class signature and keeping, per signature, the
// representative node with the smallest (depth, state hash). For runs
// bounded only by depth or exhaustion the reported set is therefore
// identical no matter how worker interleavings ordered the discoveries;
// under a Budget.Violations cutoff, which violating states fill the quota
// first — and so the reported membership — can still vary with >1 worker,
// exactly as it varies with the processing order of the serial checker. The
// quota counts violating *states* (every record call), not signatures: a
// search stops quickly once violations pile up even when they share one.
type collector struct {
	mu       sync.Mutex
	bySig    map[string]int
	list     []Finding
	recorded int // violating states seen, including signature duplicates
	max      int // Budget.Violations (0 = unbounded)
	// filled flips once the quota is reached; record's lock-free fast path
	// reads it so post-quota workers (which may still be draining violating
	// states from their bucket) stop serializing on the mutex.
	filled atomic.Bool
}

func newCollector(max int) *collector {
	return &collector{bySig: make(map[string]int), max: max}
}

// less orders findings by (depth, state hash, signature): a total order
// independent of discovery interleaving.
func (f *Finding) less(o *Finding) bool {
	if f.Node.depth != o.Node.depth {
		return f.Node.depth < o.Node.depth
	}
	if f.Node.hash != o.Node.hash {
		return f.Node.hash < o.Node.hash
	}
	return f.sig < o.sig
}

// record merges one violating state into the collection and reports whether
// the violation quota is now (or already was) filled.
func (c *collector) record(sig string, properties []string, n *Node) (quotaFilled bool) {
	if c.filled.Load() {
		return true
	}
	f := Finding{Props: properties, Node: n, sig: sig}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && c.recorded >= c.max {
		return true
	}
	c.recorded++
	if i, seen := c.bySig[sig]; seen {
		if f.less(&c.list[i]) {
			c.list[i] = f
		}
	} else {
		c.bySig[sig] = len(c.list)
		c.list = append(c.list, f)
	}
	if c.max > 0 && c.recorded >= c.max {
		c.filled.Store(true)
		return true
	}
	return false
}

// findings returns the deduplicated set in Finding.less order.
func (c *collector) findings() []Finding {
	c.mu.Lock()
	out := make([]Finding, len(c.list))
	copy(out, c.list)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].less(&out[j]) })
	return out
}

// violations renders the findings with each representative's path from its
// chain root.
func (c *collector) violations() []Violation {
	findings := c.findings()
	out := make([]Violation, len(findings))
	for i, f := range findings {
		out[i] = Violation{
			Properties: f.Props,
			Path:       f.Node.Path(),
			StateHash:  f.Node.hash,
			Depth:      f.Node.depth,
		}
	}
	return out
}

// frontier is the engine's depth-bucketed work pool, drained lowest bucket
// first. For one range with no injected arrivals a bucket is exactly a BFS
// level; in a sharded search states arrive at any depth, and draining
// shallow work first keeps expansion near breadth-first order, which
// minimizes re-expansions (a state re-arrives shallower less often).
type frontier struct {
	buckets [][]*Node
	low     int
	count   int
}

func (f *frontier) push(n *Node) {
	for n.depth >= len(f.buckets) {
		f.buckets = append(f.buckets, nil)
	}
	f.buckets[n.depth] = append(f.buckets[n.depth], n)
	if f.count == 0 || n.depth < f.low {
		f.low = n.depth
	}
	f.count++
}

// at returns the nodes queued at depth.
func (f *frontier) at(depth int) []*Node {
	if depth >= len(f.buckets) {
		return nil
	}
	return f.buckets[depth]
}

// popBucket removes and returns the lowest non-empty bucket.
func (f *frontier) popBucket() []*Node {
	for len(f.buckets[f.low]) == 0 {
		f.low++
	}
	b := f.buckets[f.low]
	f.buckets[f.low] = nil
	f.count -= len(b)
	return b
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
// local state) merge, the reduction's arrivals table and the between hook.
// With one worker the engine reproduces the serial breadth-first search of
// the paper exactly, including expansion order.
//
// Two kinds of claimed child are never held. A child at Budget.Depth is only
// ever property-checked, so the workers check it right after the claim pass
// that claimed it: a consistent one is queued as (parent, event, hash,
// depth), a violating one keeps its state; either way it is admitted,
// reported and counted when its bucket is drained, where an unchecked leaf
// would be. And a child with at least as many nodes queued ahead of it as
// Budget.States has units left can never be admitted: it enters the tables
// but not the queue, and the engine ends Exhausted once that queue drains.
//
// visited maps a fingerprint to the minimal depth it was claimed at; a
// strictly shallower arrival re-claims and re-expands, which restores
// exactly the subtree a depth-bounded BFS explores. Within one range that
// never fires (buckets drain in depth order); it is what makes a sharded
// search, where states arrive from other shards at any depth, claim the
// same set as the serial one.
//
// With Config.Reduce on, expansion runs the sleep-set partial-order
// reduction of reduce.go: network transitions slept by the claimed node's
// sleep set are skipped (their targets are commuting-square duplicates of
// states the sibling branch claims at the same level), and children carry
// the filtered, extended sleep sets. Because the claim passes are
// deterministic, the sleep set attached to a claimed state — and therefore
// the whole reduced exploration — is also identical at every worker count.
type Engine struct {
	s       *Search
	workers int
	prune   bool // consequence prediction's (node, local state) rule
	reduce  bool // sleep-set partial-order reduction
	own     HashRange
	// forward receives each proposed successor own does not contain (nil
	// when the engine owns the whole space).
	forward func(*Node) error
	bdg     *budget
	visited map[uint64]int32    // fingerprint → minimal claimed depth
	local   map[uint64]struct{} // consequence-prediction dedup table
	locals  map[uint64]struct{} // distinct node-local states over claimed states
	coll    *collector
	fr      frontier
	// window is claimWindow (a field so tests can show the search does not
	// depend on it); outs holds the current window's proposed children per
	// window position, cursor hands the window's positions to the workers
	// (wg waits for them), proposals counts the children the claim passes have handled (the wall
	// deadline is read every claimClockEvery of them), and capped records
	// that the state budget kept a claimed child out of the queue.
	window    int
	outs      [][]*Node
	cursor    atomic.Int64
	wg        sync.WaitGroup
	proposals int
	capped    bool
	// arrivals maps state hash → the child claimed from the current bucket
	// (reduction only): duplicate same-level proposals intersect their
	// sleep sets into the claimed child's, restoring the promises state
	// matching would otherwise break (see intersectSleep).
	arrivals map[uint64]*Node
	// ws holds one reusable workspace per worker (index 0 doubles as the
	// serial path's).
	ws  []*Expander
	ctr counters
}

// Expander is one worker's reusable per-state workspace: the property-check
// view and the event-enumeration buffers are recycled across every state
// the worker processes, so the per-state path allocates only for the
// successors it actually keeps. Check and Events expose the same two steps
// to callers outside the engine (path replay in internal/dist, the
// benchmark's layer probes). An Expander is not safe for concurrent use.
type Expander struct {
	s      *Search
	view   *props.View
	evb    eventBuf
	sibs   []sm.EventKey // explored siblings (reduction)
	enc    *sm.Encoder   // app-call fingerprint scratch (reduction)
	claims []uint64      // consequence (node, local state) claims awaiting the end of the bucket
}

// NewExpander returns a fresh workspace bound to the search.
func (s *Search) NewExpander() *Expander {
	return &Expander{s: s, view: props.NewView(), enc: sm.NewEncoder()}
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
	for _, ev := range x.s.networkInto(g, &x.evb) {
		emit(ev)
	}
	for i := range g.ids {
		for _, ev := range x.s.internalInto(g, i, &x.evb) {
			emit(ev)
		}
	}
}

// NewEngine returns a search loop over the fingerprints in own, spending b.
// Proposed successors outside own go to forward, which must be non-nil
// unless own is the whole space; an error from it aborts Drain. The engine
// starts empty: Inject the start state (and, sharded, every arrival).
//
// With a sink, which path first reaches a state depends on batch arrival
// order, so a violation's onset along "the" path is not a function of the
// search. Such an engine instead records, per violating state, the full
// sorted set of violated properties and deduplicates by that set alone —
// a pure function of the claimed states, hence identical at any shard and
// worker count; representative paths remain scheduling telemetry.
func (s *Search) NewEngine(b Budget, own HashRange, forward func(*Node) error) *Engine {
	if b.Workers < 1 {
		b.Workers = 1
	}
	e := &Engine{
		s:       s,
		workers: b.Workers,
		prune:   s.cfg.Mode == Consequence,
		reduce:  s.cfg.Reduce,
		own:     own,
		forward: forward,
		bdg:     newBudget(b, s.cfg.Now),
		visited: make(map[uint64]int32),
		local:   make(map[uint64]struct{}),
		locals:  make(map[uint64]struct{}),
		coll:    newCollector(b.Violations),
		ws:      make([]*Expander, b.Workers),
		window:  claimWindow,
	}
	for w := range e.ws {
		e.ws[w] = s.NewExpander()
	}
	if e.reduce {
		e.arrivals = make(map[uint64]*Node)
	}
	return e
}

// Seen reports whether fingerprint h is already claimed at depth or
// shallower — whether injecting such a state would be a duplicate. A
// sharded search asks before paying for a wire arrival's path replay.
func (e *Engine) Seen(h uint64, depth int) bool {
	prior, ok := e.visited[h]
	return ok && int(prior) <= depth
}

// Inject claims n into the engine's range and queues it for expansion,
// unless its state is already claimed at n's depth or shallower. n must
// still hold its state: a node some engine has expanded or found a
// consistent leaf (n.State() == nil) cannot be claimed again. Inject must not
// be called while Drain is expanding (the between-buckets hook is the place
// to inject mid-drain).
func (e *Engine) Inject(n *Node) bool {
	if !e.claim(n) {
		return false
	}
	e.hold(n)
	return true
}

// hold queues a claimed node, state attached, and accounts the state's bytes
// until the node is expanded or found a consistent leaf.
func (e *Engine) hold(n *Node) {
	atomicMax(&e.ctr.peakBytes, e.ctr.frontierBytes.Add(int64(n.state.EncodedSize())))
	e.fr.push(n)
}

// claim enters a state this engine owns in its tables: record its minimal
// depth and fold the node-local state its event produced into the coverage
// set. Every write to the tables happens here, between windows on the
// goroutine driving Drain, which is why they are plain maps.
//
//crystal:hotpath
func (e *Engine) claim(n *Node) bool {
	if e.Seen(n.hash, n.depth) {
		return false
	}
	e.visited[n.hash] = int32(n.depth)
	// A successor differs from its parent in at most the node its event
	// executed at, so a claim records that one local state; a chain root
	// (the start state, or a state that arrived without its event) records
	// every node. The union over all claims is every local state of every
	// claimed state either way.
	if n.event == nil {
		for _, ns := range n.state.nodes {
			e.locals[ns.localHash()] = struct{}{}
		}
	} else if _, drop := n.event.(sm.DropEvent); !drop { // a drop touches no node
		if ns := n.state.Node(n.event.Node()); ns != nil {
			e.locals[ns.localHash()] = struct{}{}
		}
	}
	return true
}

// Drain expands the frontier, lowest depth bucket first and each bucket a
// window at a time, until it is empty or the budget is spent. between, when
// non-nil, runs after every bucket's last claim pass: the place a sharded
// search flushes its outgoing batches and injects queued arrivals. The first
// error from the sink or from between stops the drain.
func (e *Engine) Drain(between func() error) error {
	for e.fr.count > 0 && !e.bdg.exhausted() {
		bucket := e.fr.popBucket()
		for lo := 0; lo < len(bucket) && !e.bdg.exhausted(); lo += e.window {
			hi := min(lo+e.window, len(bucket))
			e.expandWindow(bucket[lo:hi])
			if err := e.claimPass(bucket[lo].depth+1, len(bucket)-hi); err != nil {
				return err
			}
		}
		// The consequence (node, local state) claims the workers gathered are
		// merged once the whole bucket is expanded, so the pruning table
		// consults strictly earlier buckets.
		for _, x := range e.ws {
			for _, lh := range x.claims {
				e.local[lh] = struct{}{}
			}
			x.claims = x.claims[:0]
		}
		clear(e.arrivals)
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
	}
	if e.capped {
		e.bdg.halt(stopStates) // the queue ran dry because the budget capped it
	}
	if e.bdg.exhausted() {
		// Nothing queued will ever be expanded; let the states go.
		e.fr = frontier{}
	}
	return nil
}

// sweep runs work over nodes on up to Budget.Workers workers, each with its
// own workspace, and returns when all are done. work pulls positions from
// e.cursor; with a single worker (or a single node) it runs inline, in
// order — the paper's FIFO search.
//
//crystal:hotpath
func (e *Engine) sweep(nodes []*Node, work func(*Engine, []*Node, *Expander)) {
	e.cursor.Store(0)
	workers := min(e.workers, len(nodes))
	if workers <= 1 {
		work(e, nodes, e.ws[0])
		return
	}
	e.wg.Add(workers)
	for _, x := range e.ws[:workers] {
		go e.share(nodes, work, x)
	}
	e.wg.Wait()
}

// share is one worker's goroutine in a sweep.
func (e *Engine) share(nodes []*Node, work func(*Engine, []*Node, *Expander), x *Expander) {
	defer e.wg.Done()
	work(e, nodes, x)
}

// expandWindow expands one window of a depth bucket, leaving the proposed
// children per window position in e.outs (nil for a position the budget did
// not admit).
//
//crystal:hotpath
func (e *Engine) expandWindow(win []*Node) {
	if cap(e.outs) < len(win) {
		e.outs = make([][]*Node, len(win))
	}
	e.outs = e.outs[:len(win)]
	clear(e.outs)
	e.sweep(win, (*Engine).expandNodes)
}

// expandNodes is one worker's share of expandWindow. A node lets go of its
// state and sleep set the moment its expansion returns: from then on the
// search needs only its (parent, event, hash, depth) — paths replay from
// events — so the retained tree never pins an expanded GState.
//
//crystal:hotpath
func (e *Engine) expandNodes(win []*Node, x *Expander) {
	for {
		i := int(e.cursor.Add(1)) - 1
		if i >= len(win) || e.bdg.exhausted() || !e.bdg.admitState() {
			return
		}
		e.outs[i] = e.expand(win[i], x)
		win[i].state, win[i].sleep = nil, nil
	}
}

// claimPass is the deterministic claim pass that follows a window's
// expansion: e.outs proposes children at depth, and rest positions of the
// bucket being drained lie beyond the window. Proposed children are claimed —
// or, outside the owned range, handed to the sink — in (bucket position,
// sibling) order, exactly the serial search's order, so the surviving next
// level, each state's representative parent path and each state's sleep set
// are worker-count and window independent. A claimed child is queued unless
// the state budget cannot reach it: rest + the nodes already queued at its
// depth are admitted before it (several workers may admit up to workers-1
// positions out of order, which the cap forgoes). Children claimed at the
// depth bound are then checked by the workers.
//
//crystal:hotpath
func (e *Engine) claimPass(depth, rest int) error {
	first := len(e.fr.at(depth))
	for _, children := range e.outs {
		for _, child := range children {
			// Past the wall deadline nothing claimed here would ever be
			// expanded: stop claiming, checking every few thousand children.
			if e.proposals++; e.proposals%claimClockEvery == 0 && e.bdg.expired() {
				return nil
			}
			h := child.hash
			if !e.own.Contains(h) {
				if err := e.forward(child); err != nil {
					return err
				}
				continue
			}
			if !e.claim(child) {
				if prior, ok := e.arrivals[h]; ok {
					prior.sleep = intersectSleep(prior.sleep, child.sleep)
				}
				continue
			}
			if e.bdg.lim.States > 0 && rest+len(e.fr.at(depth)) >= e.bdg.statesLeft() {
				e.capped = true
				continue
			}
			if e.reduce {
				e.arrivals[h] = child
			}
			e.hold(child)
		}
	}
	if depth == e.bdg.lim.Depth {
		e.sweep(e.fr.at(depth)[first:], (*Engine).checkLeaves)
	}
	return nil
}

// checkLeaves is one worker's share of checking the children a claim pass
// claimed at the depth bound. A consistent leaf drops its state on the spot;
// a violating one keeps it for expand, which reports it when the leaf bucket
// is drained.
//
//crystal:hotpath
func (e *Engine) checkLeaves(leaves []*Node, x *Expander) {
	for {
		i := int(e.cursor.Add(1)) - 1
		if i >= len(leaves) {
			return
		}
		if n := leaves[i]; len(x.Check(n.state)) == 0 {
			e.ctr.frontierBytes.Add(-int64(n.state.EncodedSize()))
			n.state = nil
		}
	}
}

// reportViolation records the violation found at n and returns the violated
// set its children inherit (see NewEngine for the two recording rules).
func (e *Engine) reportViolation(n *Node, violated []string) map[string]bool {
	if e.forward != nil {
		sort.Strings(violated)
		if e.coll.record(strings.Join(violated, "|"), violated, n) {
			e.bdg.halt(stopViolations)
		}
		return nil
	}
	// Report the *onset* of each violation — properties violated here but
	// not on the path so far — then keep exploring, as the paper's search
	// does: a start state that already violates one property must not
	// mask deeper, different bugs.
	onset := make([]string, 0, len(violated))
	for _, p := range violated {
		if !n.violated[p] {
			onset = append(onset, p)
		}
	}
	if len(onset) == 0 {
		return n.violated
	}
	if e.coll.record(signature(onset, n.event), onset, n) {
		e.bdg.halt(stopViolations)
	}
	next := make(map[string]bool, len(n.violated)+len(onset))
	for p := range n.violated {
		next[p] = true
	}
	for _, p := range onset {
		next[p] = true
	}
	return next
}

// expand explores one admitted state: check properties, expand successors
// (cloning before every handler invocation, so the shared predecessor state
// is never written), and return the proposed children — the window's claim
// pass claims them. A leaf found consistent when it was claimed has no state
// and nothing left to do. Consequence (node, local state) claims go to
// x.claims for the merge at the end of the bucket. With reduction on, network
// transitions slept by the node's sleep set are skipped and each child
// carries its inherited-and-extended sleep set (reduce.go).
//
//crystal:hotpath
func (e *Engine) expand(node *Node, x *Expander) []*Node {
	atomicMax(&e.ctr.maxDepth, int64(node.depth))
	if node.state == nil {
		return nil
	}
	e.ctr.frontierBytes.Add(-int64(node.state.EncodedSize()))

	pathViolated := node.violated
	if violated := x.Check(node.state); len(violated) > 0 {
		pathViolated = e.reportViolation(node, violated)
	}
	if e.bdg.lim.Depth > 0 && node.depth >= e.bdg.lim.Depth {
		return nil
	}

	// A child at the depth bound is checked but never expanded, so its sleep
	// set would never be read.
	leaves := e.bdg.lim.Depth > 0 && node.depth+1 >= e.bdg.lim.Depth
	var children []*Node
	sibs := x.sibs[:0]
	// expand executes ev and reports whether its handler ran. The successor
	// becomes a proposed child unless the visited table, which no one writes
	// during expansion, already holds its fingerprint at this node's depth or
	// shallower: the claim pass would have to reject such a child, so no Node
	// is built for it. A fingerprint claimed at the child's own depth — by an
	// earlier window, say — still goes to the claim pass (intersectSleep needs
	// the arrival), as does one this engine does not own (visited holds only
	// owned fingerprints).
	expand := func(ev sm.Event) (child *Node, ran bool) {
		if !e.bdg.admitTransition() {
			return nil, false
		}
		next := e.s.ApplyEvent(node.state, ev)
		if next == nil {
			e.bdg.refundTransition()
			return nil, false
		}
		e.ctr.transitions.Add(1)
		if e.Seen(next.Hash(), node.depth) {
			return nil, true
		}
		child = node.child(next, ev)
		child.violated = pathViolated
		children = append(children, child)
		return child, true
	}
	// promise expands the transition k: its child, if one is proposed,
	// carries the sleep set inherited through k, and once its handler ran k
	// joins the explored siblings later children sleep on.
	promise := func(ev sm.Event, k sm.EventKey) {
		child, ran := expand(ev)
		if child != nil && !leaves {
			child.sleep = childSleep(node.sleep, sibs, k)
		}
		if ran {
			sibs = append(sibs, k)
		}
	}

	// H_M: always process all network handlers (Figure 8 line 13) — minus,
	// under reduction, the transitions this node's sleep set proves are
	// commuting-square duplicates of a sibling branch.
	for _, ev := range e.s.networkInto(node.state, &x.evb) {
		if !e.reduce {
			expand(ev)
			continue
		}
		k := sm.KeyOf(ev, x.enc)
		if node.sleep.contains(k) {
			e.ctr.sleepHits.Add(1)
			continue
		}
		promise(ev, k)
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
	// most nodes of most states are claimed.
	for i, ns := range node.state.nodes {
		claimed := false
		if e.prune {
			_, claimed = e.local[ns.localHash()]
		}
		if claimed {
			e.ctr.localPrunes.Add(int64(e.s.internalAt(node.state, i, nil)))
			continue
		}
		evs := e.s.internalInto(node.state, i, &x.evb)
		if len(evs) == 0 {
			continue
		}
		if e.prune {
			x.claims = append(x.claims, ns.localHash())
		}
		for _, ev := range evs {
			if !e.reduce {
				expand(ev)
				continue
			}
			switch k := sm.KeyOf(ev, x.enc); {
			case node.sleep.contains(k): // never a reset: none is ever promised
				e.ctr.sleepHits.Add(1)
			case k.Kind == 'R' || e.prune:
				expand(ev)
			default:
				promise(ev, k)
			}
		}
	}
	x.sibs = sibs
	return children
}

// Exhausted reports whether a budget bound (or the violation quota) has
// stopped the search; a drained frontier alone does not count.
func (e *Engine) Exhausted() bool { return e.bdg.exhausted() }

// Claimed returns the number of distinct states claimed so far.
func (e *Engine) Claimed() int { return len(e.visited) }

// ClaimedStates returns the sorted fingerprints of the claimed states
// (differential oracles compare the sets).
func (e *Engine) ClaimedStates() []uint64 { return sortedKeys(e.visited) }

// LocalStates returns the sorted distinct node-local state fingerprints
// over all claimed states.
func (e *Engine) LocalStates() []uint64 { return sortedKeys(e.locals) }

// sortedKeys returns m's keys in ascending order (collect, then sort).
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Findings returns the collected violation classes sorted by (depth, state
// hash, signature).
func (e *Engine) Findings() []Finding { return e.coll.findings() }

// Result summarises the search so far. Violation paths run from each
// representative's chain root.
func (e *Engine) Result() *Result {
	res := &Result{
		Violations:          e.coll.violations(),
		StatesExplored:      e.bdg.statesAdmitted(),
		Transitions:         int(e.ctr.transitions.Load()),
		MaxDepthReached:     int(e.ctr.maxDepth.Load()),
		LocalPrunes:         int(e.ctr.localPrunes.Load()),
		SleepHits:           int(e.ctr.sleepHits.Load()),
		DistinctLocalStates: len(e.locals),
		Elapsed:             e.bdg.elapsed(),
		StopReason:          cmp.Or(e.bdg.stopReason(), "frontier-empty"),
	}
	res.TransitionsPruned = res.SleepHits + res.LocalPrunes
	if e.s.cfg.RecordLocalStates {
		res.LocalStates = e.LocalStates()
	}
	if e.s.cfg.RecordClaimedStates {
		res.ClaimedStates = e.ClaimedStates()
	}
	// Hash-set entries cost roughly 16 bytes (8-byte key + bucket
	// overhead amortised); held states dominate at shallow depths.
	res.PeakMemoryBytes = e.ctr.peakBytes.Load() + int64(len(e.visited)+len(e.local))*16
	if res.StatesExplored > 0 {
		res.PerStateBytes = float64(res.PeakMemoryBytes) / float64(res.StatesExplored)
	}
	return res
}
