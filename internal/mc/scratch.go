package mc

import (
	"math/rand"
	"slices"
	"sync"

	"crystalball/internal/sm"
)

// scratch is the reusable workspace successor construction runs in: one
// encoder for component hashing (finalize/addMsg/staleComp/resetsComp), the
// buffering handler context with its working timer set, a re-seedable random
// stream for edgeRNG, the spare service handlers run on, and the successor
// under construction.
//
// A successor is built in the scratch and published once. begin makes next a
// copy of the parent whose containers are the scratch's own buffers; the
// constructors (step.go) run the event's handler and edit next through the
// GState mutation helpers, which keep its fingerprint and footprint exact, so
// next.Hash() is the successor's fingerprint before anything of it is on the
// heap. publish then copies next to the heap at exact size. Nothing a
// published state holds points into the scratch, and a successor the caller
// does not publish — a duplicate — allocates nothing.
//
// The handler runs on the scratch's spare service (svc), which runHandler
// refills from the executed node's with CloneInto. publish hands the spare to
// the successor and the next build clones into a fresh one, so every
// transition copies its service exactly once and a duplicate's copy is
// overwritten by the next build.
//
// Every Expander owns one scratch (an engine's worker's, a replay's), and
// with it a memo of handler effects (memo.go; runHandler); ApplyEvent and the
// GState construction API check one out of scratchPool for the duration of one
// call, and a pooled scratch never memoizes: the pool is shared by searches
// with other seeds and factories, which the memo's key does not name.
type scratch struct {
	enc sm.Encoder
	fx  sm.Effects
	rnd *rand.Rand // re-seeded per edge; identical stream to a fresh sm.NewRand

	// svc is the spare service: nil, or the copy the last handler ran on
	// in a successor that was not published. onSpare says next's executed
	// node holds it (runHandler), not a fresh service (applyReset).
	svc     sm.Service
	onSpare bool

	// next is the successor being built. Its nodes, msgs and stale slices
	// are buffers reused across builds.
	next GState
	// items holds the in-flight items next gained — sent by the event, or a
	// queue-mate moved one position toward the head — in the order next.msgs
	// points at them. Its capacity is reserved by begin, before any pointer
	// into it is taken, so it never moves during a build.
	items []InFlight
	// sent, parallel to items, is the index of the send each item was built
	// for (-1 for an RST or a moved queue-mate), and slots is where publish
	// records the heap item of each such send: the memo's own slots on a hit,
	// held otherwise (dispatchSends). added counts every item next gained,
	// built or shared: a shared item is in next.msgs but not in items.
	sent  []int32
	slots []*InFlight
	added int
	// prefixes and held hold, parallel to the executed handler's sends
	// (fx.Sends) on a memo miss, the itemPrefix of the item each send becomes
	// (0 until dispatchSends computes it) and the heap item it becomes (nil
	// until publish puts it on the heap): what the memo keeps.
	prefixes []uint64
	held     []*InFlight
	// node is the executed node's new local state, at next.nodes[at] (at is
	// -1 when no node changed). Its Timers alias fx.Timers until publish.
	node NodeState
	at   int

	// memo is the Expander's handler-effect memo (nil in a pooled scratch),
	// and pending the key of the effect the successor under construction is
	// to memoize, which publish records with the node state it puts on the
	// heap (pending.key.Kind is 0 when there is none). runs counts the
	// handlers run in the scratch (Result.HandlerRuns).
	memo    *memo
	pending effect
	runs    int64
}

func newScratch() *scratch { return &scratch{rnd: sm.NewRand(0)} }

var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// begin starts building a successor of g in sc and returns it: a copy of g
// in the scratch's buffers, with room for items new in-flight items.
//
//crystal:hotpath
func (sc *scratch) begin(g *GState, items int) *GState {
	next := &sc.next
	next.nodes = append(next.nodes[:0], g.nodes...)
	next.msgs = append(next.msgs[:0], g.msgs...)
	next.stale = append(next.stale[:0], g.stale...)
	next.resets, next.hsum, next.encSize = g.resets, g.hsum, g.encSize
	sc.items = slices.Grow(sc.items[:0], items)
	sc.sent, sc.slots, sc.added = sc.sent[:0], nil, 0
	sc.at, sc.onSpare, sc.pending.key.Kind = -1, false, 0
	return next
}

// unknown returns sc's prefix and item buffers for n sends, every prefix
// and every item unknown.
//
//crystal:hotpath
func (sc *scratch) unknown(n int) ([]uint64, []*InFlight) {
	sc.prefixes = slices.Grow(sc.prefixes[:0], n)[:n]
	clear(sc.prefixes)
	sc.held = slices.Grow(sc.held[:0], n)[:n]
	clear(sc.held)
	return sc.prefixes, sc.held
}

// newItem stores m, built for the send-th send (-1 for none), as a new
// in-flight item of next and returns its place in the item buffer. The buffer
// never grows here: pointers into it are already in next.msgs.
//
//crystal:hotpath
func (sc *scratch) newItem(m *InFlight, send int) *InFlight {
	if len(sc.items) == cap(sc.items) {
		panic("mc: in-flight item buffer full: begin reserved too little")
	}
	sc.items = append(sc.items, *m)
	sc.sent = append(sc.sent, int32(send))
	return &sc.items[len(sc.items)-1]
}

// publish copies the successor sc built from parent to the heap and returns
// it. It allocates the GState, its node container and the executed node's
// NodeState, which keeps the spare service it holds: the scratch gives the
// spare up. That node's timer set is copied only when it differs from the
// set it replaces; otherwise the node shares it. A handler effect pending for
// the memo is recorded with that NodeState, now that it is on the heap. A
// successor whose executed node holds a heap state already — a memo hit, or a
// handler that left the local state as it was — allocates no NodeState: its
// node container shares that state like every other node's. The in-flight
// container is the parent's, clipped, when the event neither removed nor added
// an item, and an exact-size copy otherwise. The items built in the scratch —
// sent, or moved up their queue — are copied to the heap as one exact-size
// block, and the heap item of each send is recorded in its slot for the memo;
// a shared item is already on the heap. The stale pairs are copied only when
// they changed.
//
//crystal:hotpath
func (sc *scratch) publish(parent *GState) *GState {
	next := &sc.next
	msgs := slices.Clip(parent.msgs) // nothing added and nothing removed: the very same items
	if sc.added > 0 || len(next.msgs) != len(parent.msgs) {
		block := exactCopy(sc.items)
		for k, send := range sc.sent {
			if send >= 0 {
				sc.slots[send] = &block[k]
			}
		}
		msgs = make([]*InFlight, len(next.msgs))
		k := 0
		for j, m := range next.msgs {
			if k < len(block) && m == &sc.items[k] {
				m = &block[k]
				k++
			}
			msgs[j] = m
		}
		if k != len(block) {
			panic("mc: a new in-flight item is missing from the successor's container")
		}
	}
	nodes := make([]*NodeState, len(next.nodes))
	copy(nodes, next.nodes)
	if sc.at >= 0 {
		ns := new(NodeState)
		*ns = sc.node
		if sc.onSpare {
			sc.svc, sc.onSpare = nil, false
		}
		if was := parent.Node(ns.id); was != nil && was.Timers.Equal(ns.Timers) {
			ns.Timers = was.Timers
		} else {
			ns.Timers = exactCopy(ns.Timers)
		}
		nodes[sc.at] = ns
		if p := &sc.pending; p.key.Kind != 0 {
			p.ns = ns
			sc.memo.add(p, sc.fx.Sends, sc.prefixes, sc.held)
			*p = effect{}
		}
	}
	stale := parent.stale
	if !slices.Equal(next.stale, parent.stale) {
		stale = exactCopy(next.stale)
	}
	return &GState{nodes: nodes, msgs: msgs, stale: stale, resets: next.resets, hsum: next.hsum, encSize: next.encSize}
}

// exactCopy returns a copy of s that shares nothing with it (nil when s is
// empty: even a zero-capacity slice of a scratch buffer points into it).
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// edgeSeed derives the deterministic per-edge random seed for executing
// the event keyed k at a node whose local-state hash is lhash:
// seed ^ FNV-64a(lhash bytes, Describe() bytes), the text folded by the key
// without building the string. Seeding from the *executing
// node's* hash — not the global state hash — makes a handler's effect,
// random draws included, a pure function of (node local state, event): the
// property the partial-order reduction's commutation promises rest on
// (reduce.go), and a better model of service randomness besides (a node's
// dice cannot depend on state it has never observed).
//
//crystal:hotpath
func edgeSeed(seed int64, lhash uint64, k *sm.EventKey) int64 {
	h := sm.FNV64aInit
	for i := 0; i < 8; i++ {
		h = sm.FNV64aByte(h, byte(lhash>>(8*i)))
	}
	return seed ^ int64(k.Fold(h))
}
