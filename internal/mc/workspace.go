package mc

// Workspace is the storage a breadth-first search builds its engine in,
// kept from one search to the next: the per-worker Expanders (scratch
// buffers, random source, memo storage, event, proposal, sibling and claim
// buffers, the proposed set and the view), the three claim tables, the
// tree's slabs and intern table, the frontier's bucket slabs and the claim
// window's buffer. A live deployment runs its checker as thousands of small
// searches one after another; run in one workspace, each pays for the
// states it claims and not for building an engine from nothing.
//
// A search borrows the workspace for its whole run (Search.RunIn) and hands
// it back cleared: the tables, tree and frontier are empty, and nothing it
// keeps points at a state, service or message of the search before — the
// memo's effects and the scratch's buffers and spare service included. So a
// search in a used workspace does exactly what it does in a fresh one.
// Search.Run is RunIn on a fresh workspace. A workspace serves one search at
// a time; what it keeps is the capacity of the largest search it ran.
type Workspace struct {
	expanders []*Expander // one per worker of the widest search so far
	tree      *Tree
	// visited maps a fingerprint to the tree entry that claimed it (at its
	// minimal depth). local is consequence prediction's claim table: a
	// claimed (node, local state) fingerprint → the count of its internal
	// actions that depend on the local state alone (localClaim). No event
	// adds or removes a node, so the node set — all that count reads beside
	// the local state — is fixed for a search. locals holds the distinct
	// node-local states over claimed states (table.go).
	visited visitedTable
	local   table
	locals  table
	fr      frontier
	// outs holds what each position of the current claim window proposed,
	// and sibIDs is the claim pass's cache of one parent's interned sibling
	// keys.
	outs   []expansion
	sibIDs []uint32
	busy   bool // a search has borrowed the workspace
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return new(Workspace) }

// borrow readies w for a search of s on workers workers and returns their
// Expanders; shared pins the tree w builds for readers on other goroutines
// (a sharded engine's, whose workspace is never handed back).
func (w *Workspace) borrow(s *Search, workers int, shared bool) []*Expander {
	if w.busy {
		panic("mc: a workspace serves one search at a time")
	}
	w.busy = true
	if w.tree == nil {
		w.tree = newTree(shared)
	}
	for len(w.expanders) < workers {
		w.expanders = append(w.expanders, s.NewExpander())
	}
	xs := w.expanders[:workers]
	for _, x := range xs {
		x.s = s
	}
	return xs
}

// release hands w back cleared for the next search.
func (w *Workspace) release() {
	for _, x := range w.expanders {
		x.clear()
	}
	w.visited.clear()
	w.local.clear()
	w.locals.clear()
	w.tree.reset()
	w.fr.clear()
	w.busy = false
}

// clear empties x for another search: its memo holds no effect, its handler
// count is zero, and none of its buffers still reaches a state, service or
// message.
func (x *Expander) clear() {
	x.view.Reset()
	x.evb.network, x.evb.internal = wipe(x.evb.network), wipe(x.evb.internal)
	x.props = wipe(x.props)
	x.sibs, x.sleep, x.claims, x.rsts = x.sibs[:0], x.sleep[:0], x.claims[:0], x.rsts[:0]
	x.proposed.clear()
	x.sc.clear()
}

// clear empties sc for another search, keeping its buffers and memo storage:
// the spare service goes, and so does everything the successor buffers, the
// handler context and the memo reach. The successor under construction
// becomes the empty state, in the same buffers.
func (sc *scratch) clear() {
	sc.fx.Sends = wipe(sc.fx.Sends)
	sc.svc, sc.onSpare = nil, false
	sc.next = GState{nodes: wipe(sc.next.nodes), msgs: wipe(sc.next.msgs), stale: sc.next.stale[:0], hsum: resetsComp0}
	sc.items, sc.sent, sc.slots, sc.held = wipe(sc.items), sc.sent[:0], nil, wipe(sc.held)
	sc.node, sc.pending = NodeState{}, effect{}
	sc.memo.clear()
	sc.runs = 0
}

// wipe empties s and zeroes its whole capacity, so nothing it held stays
// reachable through its storage.
func wipe[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}
