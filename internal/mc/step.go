package mc

import (
	"math/rand"
	"slices"

	"crystalball/internal/sm"
)

// edgeRNG returns sc's re-seedable random stream seeded for executing event
// ev from state g, so exploration (and replay) is reproducible: the paper
// notes "we deterministically replay pseudo-random number generation". The
// stream is identical to a freshly constructed sm.NewRand with the same
// derived seed (Rand.Seed resets all internal state), but reuses the
// scratch's Rand so the hot path allocates nothing.
//
//crystal:hotpath
func edgeRNG(seed int64, ns *NodeState, ev *sm.Event, sc *scratch) *rand.Rand {
	sc.rnd.Seed(edgeSeed(seed, ns.localHash(), &ev.EventKey))
	return sc.rnd
}

// apply builds the successor of g under event ev in sc — honoring installed
// event filters — and returns it, or nil when the event is not applicable
// (e.g. delivering a message that is not in flight). The successor is sc's
// working state (scratch.begin): its fingerprint is exact when apply returns,
// because every constructor below edits it through the mutation helpers
// (setNode/addMsg/removeMsgAt/setStale/clearStale/bumpResets), each of which
// adjusts the commutative hash sum in O(1); but it lives in sc until
// sc.publish copies it to the heap, and the next build overwrites it. g
// itself is never written. This is the one successor constructor: the engine,
// path replay and ApplyEvent all build here.
//
// Here an event is only tested for being enabled and matched to the
// in-flight item it consumes; which handler it runs is sm.Deliver's business.
// ev is only read: the engine hands over the enumerated event where it lies.
//
//crystal:hotpath
func (s *Search) apply(g *GState, ev *sm.Event, enumerated bool, sc *scratch) *GState {
	if f, ok := sm.FilterFor(s.cfg.Filters, *ev); ok {
		return s.applyFiltered(g, ev, f, sc)
	}
	consumed := -1
	switch ev.Kind {
	case 'M':
		if consumed = findMsg(g, ev.From, ev.Node, ev.Name, false); consumed < 0 {
			return nil
		}
		// The handler sees the in-flight item's payload, not the event's: a
		// replayed path names a message by (from, to, type) only. An event
		// enumerated at g holds that very payload already.
		if !enumerated {
			head := *ev
			head.Msg = g.msgs[consumed].Msg
			ev = &head
		}
	case 'T':
		if ns := g.Node(ev.Node); ns == nil || !ns.Timers.Has(sm.TimerID(ev.Name)) {
			return nil
		}
	case 'A': // always enabled
	case 'E':
		if consumed = findMsg(g, ev.From, ev.Node, "", true); consumed < 0 && !s.cfg.ExploreConnBreaks {
			return nil
		}
	case 'R':
		return s.applyReset(g, ev, sc)
	case 'D':
		return s.applyDrop(g, ev, sc)
	default:
		return nil
	}
	return s.runHandler(g, ev, consumed, sc)
}

// findMsg locates the first in-flight item matching the event.
//
//crystal:hotpath
func findMsg(g *GState, from, to sm.NodeID, msgType string, rst bool) int {
	for i, m := range g.msgs {
		if m.From != from || m.To != to {
			continue
		}
		if rst {
			if m.RST() {
				return i
			}
			continue
		}
		if !m.RST() && m.Msg.MsgType() == msgType {
			return i
		}
	}
	return -1
}

// dispatchSends folds a handler's captured sends into the successor:
// messages to nodes outside the snapshot go to the dummy node (dropped),
// and messages over a stale socket become an error notification
// back to the sender, mirroring the live transport. prefixes[i] is the
// itemPrefix of the item sends[i] becomes, or 0 where it is not known yet:
// dispatchSends computes it there and keeps it, so a memoized send is
// encoded and hashed once, by the first successor that adds it (a prefix
// that is 0 itself is computed every time, which costs and changes nothing).
// slots[i] is the heap item sends[i] last became, or nil: addItem shares it
// where it sits at the position the send takes, and publish records in slots
// the heap copy of every item built here instead.
//
//crystal:hotpath
func (s *Search) dispatchSends(next *GState, from sm.NodeID, sends []sm.Outgoing, prefixes []uint64, slots []*InFlight, sc *scratch) {
	sc.slots = slots
	for i, sd := range sends {
		if _, known := next.index(sd.To); !known {
			continue
		}
		if next.clearStale(pair{from, sd.To}, sc) {
			// Stale socket discovered: message lost, sender will
			// observe a transport error; the pair is fresh again
			// afterwards (next send reconnects).
			next.addMsg(InFlight{From: sd.To, To: from, Msg: nil}, sc)
			continue
		}
		m := InFlight{From: from, To: sd.To, Msg: sd.Msg}
		if prefixes[i] == 0 {
			prefixes[i] = itemPrefix(&m, sc)
		}
		next.addItem(m, prefixes[i], slots[i], i, sc)
	}
}

// runHandler builds the successor of g for the handler ev runs at its node:
// consumed is the index of the in-flight item the event delivers (negative
// when it delivers none). The handler runs first, on the node's service
// cloned into the scratch's spare, so the successor is begun knowing how many
// items it can gain: one per send, and one per queue-mate of the consumed
// item that moves up.
//
// A handler's effect on its node is a function of (node local state, event,
// consumed item) — the premise edgeSeed and the reduction already rest on —
// so a scratch with a memo runs each such triple's handler once. On a hit
// nothing is cloned, run, seeded or encoded: the successor loses the consumed
// item, gains the memoized sends (dispatched against g, since stale sockets
// and dummy redirects depend on the global state; each item's hash is its
// memoized prefix with the queue position folded in, and a send whose item
// the memo holds at that position shares it) and installs the memoized node
// state. An effect is memoized only where that costs nothing
// extra: here when the handler left the local state as it was (its source
// NodeState is then the result, and the spare stays the scratch's), and in
// publish otherwise, once the new state is on the heap anyway. An unpublished
// changed result is not moved to the heap for the memo's sake.
//
//crystal:hotpath
func (s *Search) runHandler(g *GState, ev *sm.Event, consumed int, sc *scratch) *GState {
	node := ev.Node
	i, known := g.index(node)
	if !known {
		return nil
	}
	ns := g.nodes[i]
	var item uint64
	if consumed >= 0 {
		item = g.msgs[consumed].chash
	}
	if sc.memo != nil {
		if f := sc.memo.find(ns.lhash, ns.chash, item, &ev.EventKey); f != nil {
			sends := sc.memo.sends[f.lo:f.hi]
			next := sc.begin(g, len(g.msgs)+len(sends))
			if consumed >= 0 {
				next.removeMsgAt(consumed, sc)
			}
			s.dispatchSends(next, node, sends, sc.memo.prefixes[f.lo:f.hi], sc.memo.items[f.lo:f.hi], sc)
			next.installNode(f.ns)
			return next
		}
	}
	svc := ns.Svc.CloneInto(sc.svc)
	sc.svc = svc
	fx := &sc.fx
	fx.Begin(node, ns.Timers, edgeRNG(s.cfg.Seed, ns, ev, sc))
	sm.Deliver(svc, fx, *ev)
	sc.runs++
	next := sc.begin(g, len(g.msgs)+len(fx.Sends))
	if consumed >= 0 {
		next.removeMsgAt(consumed, sc)
	}
	prefixes, held := sc.unknown(len(fx.Sends))
	s.dispatchSends(next, node, fx.Sends, prefixes, held, sc)
	// All mutations applied: freeze the clone with the handler's timer set
	// and swap it into the fingerprint.
	next.setNode(node, svc, fx.Timers, sc)
	sc.onSpare = true
	if sc.memo == nil {
		return next
	}
	sc.pending = effect{lhash: ns.lhash, chash: ns.chash, item: item, key: ev.EventKey}
	if sc.node.chash == ns.chash && sc.node.lhash == ns.lhash {
		// The local state is as it was: the source is the result.
		next.installNode(ns)
		sc.at, sc.onSpare = -1, false
		sc.pending.ns = ns
		// The publish that puts the sent items on the heap records them
		// in the memo's slots, not in held.
		sc.slots = sc.memo.add(&sc.pending, fx.Sends, prefixes, held)
		sc.pending = effect{}
	}
	return next
}

//crystal:hotpath
func (s *Search) applyDrop(g *GState, ev *sm.Event, sc *scratch) *GState {
	i := findMsg(g, ev.From, ev.Node, "", true)
	if i < 0 {
		return nil
	}
	next := sc.begin(g, len(g.msgs))
	next.removeMsgAt(i, sc)
	return next
}

// applyReset models a node crash+restart (paper: "consequence prediction
// considers, among others, the Reset action on node n13"):
//
//   - all in-flight items to and from the node are lost (TCP buffers die);
//   - every snapshot peer that lists the node as a neighbor now holds a
//     stale socket to it, to be discovered on its next send;
//   - an RST notification races toward each such peer; a separate Drop
//     transition models the RST being lost (Figure 9's lost RST);
//   - the node restarts from its initial state (Init runs, possibly
//     scheduling timers and sends).
//
// The restarted service is built where runHandler runs a handler: in the
// scratch's spare, which a copy of the node's pristine service (the
// Factory's, built once per search: scratch.pristineOf) overwrites before
// sm.Restart gives it the dying service's disk. Like a handler's clone, it
// reaches the heap only when publish hands the spare over, so a reset that is
// a duplicate or a clean leaf allocates no service. Init runs first — it reads
// nothing of the global state — so the successor is begun knowing how many
// items it can gain: an RST per peer and one per send.
//
//crystal:hotpath
func (s *Search) applyReset(g *GState, ev *sm.Event, sc *scratch) *GState {
	id := ev.Node
	at, known := g.index(id)
	if !known {
		return nil
	}
	ns := g.nodes[at]
	// A pristine service, re-initialised; disk contents survive the crash.
	fresh := sm.Restart(sc.pristineOf(s.cfg.Factory, id).CloneInto(sc.svc), ns.Svc)
	sc.svc = fresh
	fx := &sc.fx
	fx.Begin(id, nil, edgeRNG(s.cfg.Seed, ns, ev, sc))
	fresh.Init(fx)
	next := sc.begin(g, len(g.nodes)-1+len(fx.Sends))
	next.bumpResets(sc)
	// Drop in-flight traffic touching the node. The predicate depends only
	// on the endpoints, so it removes whole (from,to,type) queues: the
	// queue positions baked into surviving items' component hashes still
	// count exactly their same-queue predecessors, and no rehash is needed.
	kept := next.msgs[:0]
	for _, m := range next.msgs {
		if m.From != id && m.To != id {
			kept = append(kept, m)
		} else {
			next.hsum -= m.chash
			next.encSize -= int(m.sz)
		}
	}
	next.msgs = kept
	// Peers that knew the node hold stale sockets and receive racing RSTs.
	// Iterate in sorted node order: the append order becomes the
	// successor's in-flight order, which event enumeration (and so
	// same-seed searches) must see identically every run.
	for _, peer := range next.nodes {
		if peer.id == id {
			continue
		}
		for _, nb := range peer.Svc.Neighbors() {
			if nb == id {
				next.setStale(pair{peer.id, id}, sc)
				next.addMsg(InFlight{From: id, To: peer.id, Msg: nil}, sc)
				break
			}
		}
	}
	// The reset node has no stale knowledge of anyone.
	next.clearStaleFrom(id, sc)
	prefixes, held := sc.unknown(len(fx.Sends))
	s.dispatchSends(next, id, fx.Sends, prefixes, held, sc)
	next.setNode(id, fresh, fx.Timers, sc)
	sc.onSpare = true
	return next
}

// eventBuf is the reusable enumeration workspace owned by one worker: the
// network and internal event slices are recycled across states, and an
// event is a value, so steady-state enumeration allocates nothing. The
// slices handed out by networkInto and internalInto alias the buffer and are
// valid only until its next use.
type eventBuf struct {
	network  []sm.Event
	internal []sm.Event // one node's internal actions at a time
}

// Enumeration of the transitions available from a state comes in two parts:
// networkInto lists the message-handler events (the paper's H_M: deliveries,
// error notifications, RST drops) and internalAt one node's internal actions
// (H_A: timers, application calls, resets, conn breaks). Consequence
// prediction prunes only the latter, per node, and asks for them per node.
// Both only read g, so concurrent workers may enumerate a shared state freely
// (each through its own buffer). Enumeration order is deterministic —
// in-flight slice order for H_M; the sorted timer set, then model app calls,
// reset and conn-break events for H_A — so same-seed explorations pick the
// same transitions every run.

// networkInto enumerates g's message-handler events into buf. Only the head
// of each (from, to, type) queue is deliverable — FIFO per pair keeps the
// state count down and matches live TCP ordering — and identical RSTs
// collapse the same way; an item's queue position is part of the item (it is
// hashed: see addMsg), so the head is simply the item at position 0.
//
//crystal:hotpath
func (s *Search) networkInto(g *GState, buf *eventBuf) []sm.Event {
	buf.network = buf.network[:0]
	for _, m := range g.msgs {
		if m.pos != 0 {
			continue
		}
		if m.RST() {
			buf.network = append(buf.network, sm.TransportError(m.To, m.From), sm.RSTDrop(m.From, m.To))
			continue
		}
		buf.network = append(buf.network, sm.Delivery(m.From, m.To, m.Msg))
	}
	return buf.network
}

// internalAt walks the internal actions enabled at g's i-th node in their
// canonical order and returns how many there are, n, and how many of them
// the consequence rule may store with the node's local state, local (see
// localClaim): n without the reset, and counting the conn break to every
// neighbour present, whether or not an RST from it is in flight. With out
// non-nil it also appends the actions to *out, fingerprinting each app call
// on enc so its key pins the call; with out nil it builds nothing.
//
//crystal:hotpath
func (s *Search) internalAt(g *GState, i int, out *[]sm.Event, enc *sm.Encoder) (n, local int) {
	ns := g.nodes[i]
	id := ns.id
	// The set is sorted by construction: no iteration order can leak into
	// the transition order same-seed runs replay.
	n = len(ns.Timers)
	if out != nil {
		for _, t := range ns.Timers {
			*out = append(*out, sm.TimerFiring(id, t))
		}
	}
	if ma, ok := ns.Svc.(sm.ModelActions); ok {
		calls := ma.ModelAppCalls()
		n += len(calls)
		if out != nil {
			for _, call := range calls {
				*out = append(*out, sm.AppInvocation(id, call, enc))
			}
		}
	}
	local = n
	if s.cfg.ExploreResets && g.resets < s.cfg.MaxResetsPerPath {
		n++
		if out != nil {
			*out = append(*out, sm.Reset(id))
		}
	}
	if s.cfg.ExploreConnBreaks {
		// An RST in flight from a neighbor enables the same key in
		// networkInto: the break and the RST's arrival are one transition.
		rsts := false
		for _, m := range g.msgs {
			if rsts = m.To == id && m.RST(); rsts {
				break
			}
		}
		for _, nb := range ns.Svc.Neighbors() {
			if _, known := g.index(nb); !known {
				continue
			}
			local++
			if !rsts || findMsg(g, nb, id, "", true) < 0 {
				n++
				if out != nil {
					*out = append(*out, sm.TransportError(id, nb))
				}
			}
		}
	}
	return n, local
}

// prunedAt returns how many internal actions internalAt enumerates at g's
// i-th node, whose local state the consequence rule claimed with count
// local; rst says whether an RST is in flight to the node (rstTargets). Of
// what internalAt counts, only two terms are not a function of the local
// state: the reset, enabled while the path has resets left, and the conn
// breaks an in-flight RST enables as a delivery instead. The first is read
// off g; the second needs the node's neighbours, so only a node with an RST
// in flight to it (and conn breaks on) takes the walk.
//
//crystal:hotpath
func (s *Search) prunedAt(g *GState, i, local int, rst bool) int {
	if rst && s.cfg.ExploreConnBreaks {
		n, _ := s.internalAt(g, i, nil, nil)
		return n
	}
	if s.cfg.ExploreResets && g.resets < s.cfg.MaxResetsPerPath {
		local++
	}
	return local
}

// rstTargets lists into buf the nodes an RST is in flight to in g, once per
// RST, and returns it.
//
//crystal:hotpath
func rstTargets(g *GState, buf []sm.NodeID) []sm.NodeID {
	buf = buf[:0]
	for _, m := range g.msgs {
		if m.RST() {
			buf = append(buf, m.To)
		}
	}
	return buf
}

// internalInto lists the internal actions of g's i-th node into buf and
// returns them with internalAt's local count.
//
//crystal:hotpath
func (s *Search) internalInto(g *GState, i int, buf *eventBuf, enc *sm.Encoder) ([]sm.Event, int) {
	buf.internal = buf.internal[:0]
	_, local := s.internalAt(g, i, &buf.internal, enc)
	return buf.internal, local
}

// EnabledEvents enumerates the transitions available from g, split into
// message-handler events and internal-action events per node. It is the
// allocating convenience form of networkInto and internalAt for tests, tools
// and custom strategies; the returned containers are freshly allocated and
// owned by the caller.
func (s *Search) EnabledEvents(g *GState) (network []sm.Event, internal map[sm.NodeID][]sm.Event) {
	var buf eventBuf
	enc := sm.NewEncoder()
	network = slices.Clip(s.networkInto(g, &buf))
	internal = make(map[sm.NodeID][]sm.Event, len(g.nodes))
	for i, ns := range g.nodes {
		buf.internal = nil // each node's list is the caller's to keep
		internal[ns.id], _ = s.internalInto(g, i, &buf, enc)
	}
	return network, internal
}
