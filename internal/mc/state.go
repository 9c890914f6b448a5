// Package mc implements the model checker at the heart of CrystalBall: the
// baseline exhaustive breadth-first search (paper Figure 5), the
// consequence-prediction algorithm (paper Figure 8), both run by one engine
// (mc.Engine), replay of previously discovered error paths, and the
// event-filter safety check used by execution steering.
//
// The checker executes real service handler code on cloned states, exactly
// as MaceMC executed real Mace/C++ handlers; the global state is the (L, I)
// pair of the paper's Figure 4 — local node states plus in-flight messages —
// extended with the small amount of transport bookkeeping (stale TCP pairs,
// droppable RST notifications) needed to model the failure scenarios the
// paper's bugs depend on.
package mc

import (
	"slices"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Domain tags for the commutative state fingerprint: every component hash
// is FNV-64a over (tag, component encoding), so components of different
// kinds occupy separate hash domains and a message can never cancel a node
// or a stale pair in the sum.
const (
	domainNode   = 'N'
	domainMsg    = 'M'
	domainStale  = 'S'
	domainResets = 'R'
)

// NodeState is one node's local state inside the checker: the service state
// machine plus the pending-timer set. NodeState values are immutable once
// published in a GState; successor states clone before mutating. Because of
// that immutability, what the checker needs of the canonical encoding
// (service then timers) is computed once — by the constructing goroutine,
// before the state is shared — and reused by every global state the node state
// appears in: its length, for the footprint, and the two hashes over it. The
// bytes themselves are never kept: nothing reads an encoding twice, and
// FullHash re-encodes from Svc and Timers on purpose.
//
// Timers is an sm.TimerSet — sorted, duplicate-free — that nobody writes once
// the node state is published: a successor whose handler left the set equal
// to its parent's (untouched, or a periodic timer consumed and re-armed)
// holds the parent's very slice, and any other set is publish's exact-size
// copy. Handlers edit the scratch's working copy (sm.Effects.Timers), never
// this field.
type NodeState struct {
	Svc    sm.Service
	Timers sm.TimerSet

	id     sm.NodeID // the node this is a state of, set by finalize (it is hashed in)
	encLen int32     // length of the canonical encoding, set by finalize
	chash  uint64    // domain-tagged component hash, set by finalize
	lhash  uint64    // consequence-prediction local hash, set by finalize
}

// finalize freezes ns — whose Svc is final — with the pending-timer set
// timers: one encoding pass, service then timers, into sc's reusable buffer,
// and the two hashes over it — the global-fingerprint component hash and the
// consequence-prediction local hash — streamed from that buffer, which is
// then the next caller's. It must be called exactly once, by the goroutine
// building the enclosing GState, after all handler mutations are applied
// and before the state is published — from then on every access is a pure
// read, safe under -race.
//
// ns keeps timers as given: it may alias a working buffer (sm.Effects.Timers),
// and publish is what gives the published node state a set of its own. So
// finalize allocates nothing.
//
//crystal:hotpath
func (ns *NodeState) finalize(id sm.NodeID, timers sm.TimerSet, sc *scratch) {
	ns.id, ns.Timers = id, timers
	e := &sc.enc
	e.Reset()
	ns.Svc.EncodeState(e)
	timers.Encode(e)
	enc := e.Bytes()
	ns.encLen = int32(len(enc))
	// The hashes run over NodeID(id), then the length-prefixed encoding.
	n := uint32(len(enc))
	hdr := [8]byte{
		byte(uint32(id) >> 24), byte(uint32(id) >> 16), byte(uint32(id) >> 8), byte(uint32(id)),
		byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n),
	}
	ns.chash = sm.Mix64(sm.FNV64aBytes(sm.FNV64aBytes(sm.FNV64aByte(sm.FNV64aInit, domainNode), hdr[:]), enc))
	ns.lhash = sm.Mix64(sm.FNV64aBytes(sm.FNV64aBytes(sm.FNV64aInit, hdr[:]), enc))
}

// localHash returns the hash of the node-local state (service state +
// timers); the consequence-prediction pruning keys its localExplored set on
// this. The value is precomputed by finalize — every NodeState reaches a
// GState through setNode, which finalizes it before it is published — so
// this is a pure read on shared states.
func (ns *NodeState) localHash() uint64 { return ns.lhash }

// InFlight is one in-flight network item: a service message, or (when Msg
// is nil) an RST notification telling To that its connection to From broke.
//
// An item is built in the scratch and published once, and every state that
// still holds it shares the one heap value: a successor's container is a
// slice of pointers to its parent's items plus the items its own event added.
// A handler memo holds the items its sends became, and a later successor whose
// memoized send lands at the same queue position shares that value too.
// The queue position, component hash and footprint size are written exactly
// once, in the scratch of the goroutine building the item (addMsg for a new
// item, removeMsgAt for the copy of a queue-mate that moves one position
// toward the head); publish copies it to the heap and nothing writes it
// again — so hashing, enumeration and successor construction never write to
// an item another state can see.
type InFlight struct {
	From  sm.NodeID
	To    sm.NodeID
	Msg   sm.Message // nil => RST notification
	pos   int        // position within the item's (From,To,type) FIFO queue
	chash uint64     // domain-tagged component hash, set at construction
	sz    int        // EncodedSize contribution, set at construction
}

// RST reports whether the item is a connection-break notification.
func (f *InFlight) RST() bool { return f.Msg == nil }

// sameQueue reports whether a and b travel the same per-pair FIFO queue:
// identical endpoints and message type (all RSTs for a pair share one
// queue). Delivery picks each queue's head, so order *within* a queue is
// semantically significant while order *across* queues is bookkeeping.
func sameQueue(a, b *InFlight) bool {
	if a.From != b.From || a.To != b.To || a.RST() != b.RST() {
		return false
	}
	return a.RST() || a.Msg.MsgType() == b.Msg.MsgType()
}

func (f *InFlight) encode(e *sm.Encoder) {
	e.NodeID(f.From)
	e.NodeID(f.To)
	if f.Msg == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.String(f.Msg.MsgType())
		f.Msg.EncodeMsg(e)
	}
}

type pair struct{ a, b sm.NodeID }

// less orders stale pairs by (sender, peer), the order GState.stale is kept
// in.
func (x pair) less(y pair) bool { return x.a < y.a || x.a == y.a && x.b < y.b }

// findPair returns p's position in the sorted pairs ps and whether it is
// there; for an absent pair, the position it would be inserted at. A state
// holds a few stale pairs at most, and most hold none or one, so the search
// is written out over pair values: no callback per probe.
//
//crystal:hotpath
func findPair(ps []pair, p pair) (int, bool) {
	lo, hi := 0, len(ps)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ps[mid].less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ps) && ps[lo] == p
}

// staleComp returns the fingerprint component hash of one stale pair,
// encoding through the scratch encoder.
//
//crystal:hotpath
func staleComp(p pair, sc *scratch) uint64 {
	e := &sc.enc
	e.Reset()
	e.NodeID(p.a)
	e.NodeID(p.b)
	return e.DomainHash(domainStale)
}

// resetsComp returns the fingerprint component hash of the resets counter.
//
//crystal:hotpath
func resetsComp(n int, sc *scratch) uint64 {
	e := &sc.enc
	e.Reset()
	e.Int(n)
	return e.DomainHash(domainResets)
}

// resetsComp0 is resetsComp(0), the fingerprint seed of a fresh state.
var resetsComp0 = func() uint64 {
	sc := getScratch()
	defer putScratch(sc)
	return resetsComp(0, sc)
}()

// GState is a global system state: the paper's (L, I) plus transport
// bookkeeping. GStates are persistent: successors share unmodified node
// states and in-flight items and copy only what an event changes.
//
// The state fingerprint (Hash) is maintained incrementally: hsum is the
// wrapping sum of the component hashes of every node, in-flight item and
// stale pair plus the resets counter. Addition is commutative, so the
// fingerprint is independent of bookkeeping order — in-flight items hash
// as a multiset of (item, queue position) pairs: order across distinct
// (from,to,type) queues is invisible, while order within one queue (which
// decides the FIFO delivery head) is captured by the position term — and
// every mutation helper below updates the sum in O(1) amortised; a
// successor's hash costs O(changed components) instead of a full
// re-encoding of every node. The encoded footprint (EncodedSize) is
// maintained the same way, so it never re-walks the state per query.
//
// The layout is three slices and no map: a state holds a handful of nodes
// and at most a few stale pairs, so id lookup is one binary search (index)
// and every walk — FullHash, FillView, event enumeration, reset handling —
// runs in ascending id / pair order by construction. Enumeration order is
// therefore a function of the state, not of map iteration. A node's id is in
// its NodeState, not in a parallel id list: the list would be the same slice
// in every state of a search, and its header 24 bytes of every one of them.
//
// Ownership has one rule: a state is built in a scratch and published once.
// The mutation helpers below write only the state a scratch is building
// (scratch.begin gave it containers of the scratch's own, so they edit in
// place); publish copies it to the heap, and what a published state holds is
// never written again — its in-flight container, stale pairs, node states and
// items are shared freely with its successors. The construction API writes
// the state it is called on: AddMessage is the same build and publish, over
// that state, and AddNode installs a heap node state in its node container —
// the one container no other state shares, since every publish makes its own.
type GState struct {
	nodes   []*NodeState // local states, ascending by id
	msgs    []*InFlight  // in-flight items, shared with every state that holds them
	stale   []pair       // sorted (sender, peer) pairs: sender holds a stale socket to peer
	resets  int          // reset events taken on this path (bounds fault depth)
	hsum    uint64       // incrementally maintained commutative fingerprint
	encSize int          // incrementally maintained EncodedSize
}

// index returns id's position in nodes and whether it is present; for an
// absent id, the position it would be inserted at.
//
//crystal:hotpath
func (g *GState) index(id sm.NodeID) (int, bool) {
	lo, hi := 0, len(g.nodes)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); g.nodes[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(g.nodes) && g.nodes[lo].id == id
}

// NewGState returns an empty global state: no nodes, nothing in flight, no
// stale pairs, no resets. AddNode and AddMessage fill it in.
func NewGState() *GState { return &GState{hsum: resetsComp0} }

// edit is how the construction API changes g's in-flight items and stale
// pairs, the way every successor is made: f edits a scratch copy of g, with
// room for one new in-flight item, and the result is published over g.
func (g *GState) edit(f func(next *GState, sc *scratch)) {
	sc := getScratch()
	f(sc.begin(g, 1), sc)
	*g = *sc.publish(g)
	putScratch(sc)
}

// AddNode inserts a node's local state. The service is used as-is (not
// cloned) and its encoding and hashes are captured here, so callers must
// finish mutating svc before AddNode and clone it first if they keep using
// it. The node state is built on the heap, timer set copied, and installed
// in g's node container directly (see GState): a start state of n nodes is
// built without n copies of the container.
func (g *GState) AddNode(id sm.NodeID, svc sm.Service, timers sm.TimerSet) {
	sc := getScratch()
	ns := &NodeState{Svc: svc}
	ns.finalize(id, exactCopy(timers), sc)
	putScratch(sc)
	g.installNode(ns)
}

// setNode makes (svc, timers) the local state of node id in g, the state sc
// is building: sc.node is finalized with them and takes the node's place.
// At most one node changes per build.
//
//crystal:hotpath
func (g *GState) setNode(id sm.NodeID, svc sm.Service, timers sm.TimerSet, sc *scratch) {
	ns := &sc.node
	*ns = NodeState{Svc: svc}
	ns.finalize(id, timers, sc)
	sc.at = g.installNode(ns)
}

// installNode makes the finalized ns the local state of its node in g — at
// a new position for an id g lacks, which only construction adds — trading
// the old state's contribution to the fingerprint and footprint for ns's,
// and returns its position.
//
//crystal:hotpath
func (g *GState) installNode(ns *NodeState) int {
	i, present := g.index(ns.id)
	if present {
		old := g.nodes[i]
		g.hsum -= old.chash // every installed node is finalized
		g.encSize -= 4 + int(old.encLen)
	} else {
		g.nodes = slices.Insert(g.nodes, i, nil)
	}
	g.hsum += ns.chash
	g.encSize += 4 + int(ns.encLen)
	g.nodes[i] = ns
	return i
}

// AddMessage inserts an in-flight service message.
func (g *GState) AddMessage(from, to sm.NodeID, msg sm.Message) {
	g.edit(func(next *GState, sc *scratch) { next.addMsg(InFlight{From: from, To: to, Msg: msg}, sc) })
}

// addMsg appends an in-flight item to g, the state sc is building, computing
// its queue position, component hash and size and folding them into the
// running totals. The item lives in sc's item buffer until publish copies it
// to the heap, in one block with the successor's other new items; from then
// on it is shared, never copied, by every descendant that inherits it.
//
// The component hash covers the item's queue position — the number of
// same-queue items already in flight — not just its content. The
// fingerprint sum is insensitive to slice order across queues (bookkeeping
// only), but within one (from,to,type) queue the order decides which item
// enabledInto's FIFO head pick delivers next, so two states whose shared
// queue holds the same items in different orders have different successor
// sets and must not collide: without the position term, hash-equal would
// not imply successor-equal, and claiming the "wrong" representative could
// silently drop reachable states.
//
//crystal:hotpath
func (g *GState) addMsg(m InFlight, sc *scratch) { g.addItem(m, itemPrefix(&m, sc), nil, -1, sc) }

// addItem is addMsg for the send-th of a handler's sends, whose component
// hash up to its queue position, prefix (itemPrefix), is known, and held the
// heap item the send last became (nil if none): when held sits at the
// position m takes, it is m — same endpoints, same message, same position,
// so the same hash and size — and g shares it instead of building another.
//
//crystal:hotpath
func (g *GState) addItem(m InFlight, prefix uint64, held *InFlight, send int, sc *scratch) {
	m.pos = 0
	for _, q := range g.msgs {
		if sameQueue(q, &m) {
			m.pos++
		}
	}
	sc.added++
	if held != nil && held.pos == m.pos {
		g.hsum += held.chash
		g.encSize += held.sz
		g.msgs = append(g.msgs, held)
		return
	}
	m.chash = foldPos(prefix, m.pos)
	m.sz = 13
	if m.Msg != nil {
		m.sz += m.Msg.Size()
	}
	g.hsum += m.chash
	g.encSize += m.sz
	g.msgs = append(g.msgs, sc.newItem(&m, send))
}

// itemPrefix returns the FNV-64a state of m's component hash before its
// queue position: the domain tag, then m's encoding. An item's component hash
// is foldPos(itemPrefix, position). The prefix is a function of the item
// alone, so the memo keeps it with each memoized send.
//
//crystal:hotpath
func itemPrefix(m *InFlight, sc *scratch) uint64 {
	e := &sc.enc
	e.Reset()
	m.encode(e)
	return sm.FNV64aBytes(sm.FNV64aByte(sm.FNV64aInit, domainMsg), e.Bytes())
}

// foldPos finishes an item's component hash from its prefix: the queue
// position's eight bytes (sm.Encoder.Int), then Mix64 — what DomainHash over
// the item's encoding and position returns.
//
//crystal:hotpath
func foldPos(prefix uint64, pos int) uint64 {
	h := prefix
	for i := 56; i >= 0; i -= 8 {
		h = sm.FNV64aByte(h, byte(uint64(pos)>>i))
	}
	return sm.Mix64(h)
}

// removeMsgAt removes the i-th in-flight item of g, the state sc is
// building. Later items in the removed item's queue shift one position
// toward the head. Items are shared with every other state that holds them,
// so such a queue-mate is copied into sc's item buffer and the copy gets the
// new position and component hash; the original is never written (queues
// longer than one item are rare, so the copy almost never happens).
//
//crystal:hotpath
func (g *GState) removeMsgAt(i int, sc *scratch) {
	removed := g.msgs[i]
	g.hsum -= removed.chash
	g.encSize -= removed.sz
	for j, m := range g.msgs[i+1:] {
		if sameQueue(m, removed) {
			moved := sc.newItem(m, -1)
			moved.pos--
			moved.chash = foldPos(itemPrefix(moved, sc), moved.pos)
			g.hsum += moved.chash - m.chash
			m = moved
		}
		g.msgs[i+j] = m
	}
	g.msgs = g.msgs[:len(g.msgs)-1]
}

// setStale records a stale pair in g, the state sc is building, updating the
// totals if it was absent. Like clearStale and clearStaleFrom it writes in
// place: the pairs are the scratch's copy (publish decides whether the
// published state needs one of its own).
//
//crystal:hotpath
func (g *GState) setStale(p pair, sc *scratch) {
	if i, present := findPair(g.stale, p); !present {
		g.stale = slices.Insert(g.stale, i, p)
		g.hsum += staleComp(p, sc)
		g.encSize += 16
	}
}

// clearStale removes a stale pair, updating the totals, and reports whether
// it was present.
//
//crystal:hotpath
func (g *GState) clearStale(p pair, sc *scratch) bool {
	i, present := findPair(g.stale, p)
	if present {
		g.stale = slices.Delete(g.stale, i, i+1)
		g.hsum -= staleComp(p, sc)
		g.encSize -= 16
	}
	return present
}

// clearStaleFrom removes every stale pair whose sender is a, updating the
// totals; filtering in order keeps the survivors sorted.
//
//crystal:hotpath
func (g *GState) clearStaleFrom(a sm.NodeID, sc *scratch) {
	kept := g.stale[:0]
	for _, p := range g.stale {
		if p.a != a {
			kept = append(kept, p)
		} else {
			g.hsum -= staleComp(p, sc)
			g.encSize -= 16
		}
	}
	g.stale = kept
}

// bumpResets increments the reset counter, swapping its component hash.
//
//crystal:hotpath
func (g *GState) bumpResets(sc *scratch) {
	g.hsum -= resetsComp(g.resets, sc)
	g.resets++
	g.hsum += resetsComp(g.resets, sc)
}

// Nodes returns the node ids present, ascending, in a slice of the caller's
// own (the checker itself walks nodes and never asks).
func (g *GState) Nodes() []sm.NodeID {
	ids := make([]sm.NodeID, len(g.nodes))
	for i, ns := range g.nodes {
		ids[i] = ns.id
	}
	return ids
}

// Node returns the local state of id, or nil if absent from the snapshot.
func (g *GState) Node(id sm.NodeID) *NodeState {
	if i, present := g.index(id); present {
		return g.nodes[i]
	}
	return nil
}

// FillView resets v and loads this state's nodes into it, reusing v's
// storage. The view is filled in ascending node order, so View.IDs needs no
// re-sort.
//
//crystal:hotpath
func (g *GState) FillView(v *props.View) {
	v.Reset()
	for _, ns := range g.nodes {
		v.Add(ns.id, ns.Svc, ns.Timers)
	}
}

// Hash returns the state fingerprint: the commutative sum of the
// domain-tagged, Mix64-finalized component hashes of every node, in-flight
// item and stale pair plus the resets counter. The sum is maintained
// incrementally by every mutation, so Hash is O(1) and never writes to the
// state — concurrent workers may hash a shared state freely. States
// differing only in bookkeeping order (slice order across distinct message
// queues) collide as they should, while states whose shared
// FIFO queue holds the same messages in different orders — and which
// therefore deliver different heads next — stay distinct; FullHash
// recomputes the same value from scratch and serves as the differential
// oracle in tests.
//
// Unlike the pre-incremental scheme, the fingerprint includes the resets
// counter: two states equal in (nodes, messages, stale pairs) but reached
// with different reset budgets enable different transitions (EnabledEvents
// gates a reset on g.resets), so conflating them in the visited set
// could prune reachable fault paths. This deliberately refines the
// visited-set equivalence relation.
//
//crystal:hotpath
func (g *GState) Hash() uint64 {
	if g.hsum == 0 {
		return 1 // keep 0 free as the "no state" sentinel used by callers
	}
	return g.hsum
}

// FullHash recomputes the fingerprint from scratch — re-encoding every
// service, message and stale pair, bypassing every cached hash — and must
// always equal Hash. It is the slow-path oracle
// the differential property tests check the incremental maintenance
// against, and a fallback for tooling that constructs states outside the
// checker's mutators.
func (g *GState) FullHash() uint64 {
	var sum uint64
	for _, ns := range g.nodes {
		ne := sm.NewEncoder()
		ns.Svc.EncodeState(ne)
		encodeTimers(ne, ns.Timers)
		e := sm.NewEncoder()
		e.NodeID(ns.id)
		e.Bytes2(ne.Bytes())
		sum += e.DomainHash(domainNode)
	}
	for i := range g.msgs {
		// Recompute the queue position independently of the cached pos
		// field: the count of earlier same-queue items in slice order.
		pos := 0
		for j := 0; j < i; j++ {
			if sameQueue(g.msgs[j], g.msgs[i]) {
				pos++
			}
		}
		e := sm.NewEncoder()
		g.msgs[i].encode(e)
		e.Int(pos)
		sum += e.DomainHash(domainMsg)
	}
	for _, p := range g.stale {
		e := sm.NewEncoder()
		e.NodeID(p.a)
		e.NodeID(p.b)
		sum += e.DomainHash(domainStale)
	}
	e := sm.NewEncoder()
	e.Int(g.resets)
	sum += e.DomainHash(domainResets)
	if sum == 0 {
		return 1
	}
	return sum
}

// encodeTimers writes the canonical timer-set encoding for the from-scratch
// FullHash oracle. It trusts nothing finalize relies on: the names are sorted
// and de-duplicated here, on a copy, so a set that lost its invariant hashes
// differently through the two paths and the oracle says so.
func encodeTimers(e *sm.Encoder, timers sm.TimerSet) {
	sm.NewTimerSet(timers...).Encode(e)
}

// EncodedSize approximates the state's in-memory footprint for the memory
// experiments (paper Figures 15 and 16). It is maintained incrementally by
// every mutation helper, so reading it is O(1).
func (g *GState) EncodedSize() int { return g.encSize }
