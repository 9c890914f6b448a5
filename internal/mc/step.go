package mc

import (
	"math/rand"

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
func edgeRNG(seed int64, ns *NodeState, ev sm.Event, sc *scratch) *rand.Rand {
	sc.rnd.Seed(edgeSeed(seed, ns.localHash(), ev))
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
//
//crystal:hotpath
func (s *Search) apply(g *GState, ev sm.Event, enumerated bool, sc *scratch) *GState {
	if f, ok := s.filterFor(ev); ok {
		return s.applyFiltered(g, ev, f, sc)
	}
	consumed := -1
	switch e := ev.(type) {
	case sm.MsgEvent:
		if consumed = findMsg(g, e.From, e.To, e.Msg.MsgType(), false); consumed < 0 {
			return nil
		}
		// The handler sees the in-flight item's payload, not the event's: a
		// replayed path names a message by (from, to, type) only. An event
		// enumerated at g holds that very payload already.
		if !enumerated {
			e.Msg = g.msgs[consumed].Msg
			ev = e
		}
	case sm.TimerEvent:
		if ns := g.Node(e.At); ns == nil || !ns.Timers.Has(e.Timer) {
			return nil
		}
	case sm.AppEvent: // always enabled
	case sm.ErrorEvent:
		if consumed = findMsg(g, e.Peer, e.At, "", true); consumed < 0 && !s.cfg.ExploreConnBreaks {
			return nil
		}
	case sm.ResetEvent:
		return s.applyReset(g, e, sc)
	case sm.DropEvent:
		return s.applyDrop(g, e, sc)
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
// messages to nodes outside the snapshot go to the dummy node (dropped,
// counted), and messages over a stale socket become an error notification
// back to the sender, mirroring the live transport.
//
//crystal:hotpath
func (s *Search) dispatchSends(next *GState, from sm.NodeID, sc *scratch) {
	for _, sd := range sc.fx.Sends {
		if _, known := next.index(sd.To); !known {
			s.dummyRedirects.Add(1)
			continue
		}
		if next.clearStale(pair{from, sd.To}, sc) {
			// Stale socket discovered: message lost, sender will
			// observe a transport error; the pair is fresh again
			// afterwards (next send reconnects).
			next.addMsg(InFlight{From: sd.To, To: from, Msg: nil}, sc)
			continue
		}
		next.addMsg(InFlight{From: from, To: sd.To, Msg: sd.Msg}, sc)
	}
}

// runHandler builds the successor of g for the handler ev runs at its node:
// consumed is the index of the in-flight item the event delivers (negative
// when it delivers none). The handler runs first, on the node's service
// cloned into the scratch's spare, so the successor is begun knowing how many
// items it can gain: one per send, and one per queue-mate of the consumed
// item that moves up.
//
//crystal:hotpath
func (s *Search) runHandler(g *GState, ev sm.Event, consumed int, sc *scratch) *GState {
	node := ev.Node()
	i, known := g.index(node)
	if !known {
		return nil
	}
	ns := g.nodes[i]
	svc := ns.Svc.CloneInto(sc.svc)
	sc.svc = svc
	fx := &sc.fx
	fx.Begin(node, ns.Timers, edgeRNG(s.cfg.Seed, ns, ev, sc))
	sm.Deliver(svc, fx, ev)
	next := sc.begin(g, len(g.msgs)+len(fx.Sends))
	if consumed >= 0 {
		next.removeMsgAt(consumed, sc)
	}
	s.dispatchSends(next, node, sc)
	// All mutations applied: freeze the clone with the handler's timer set
	// and swap it into the fingerprint.
	next.setNode(node, svc, fx.Timers, sc)
	sc.onSpare = true
	return next
}

//crystal:hotpath
func (s *Search) applyDrop(g *GState, e sm.DropEvent, sc *scratch) *GState {
	i := findMsg(g, e.From, e.To, "", true)
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
// Init runs first — it reads nothing of the global state — so the successor
// is begun knowing how many items it can gain: an RST per peer and one per
// send.
//
//crystal:hotpath
func (s *Search) applyReset(g *GState, e sm.ResetEvent, sc *scratch) *GState {
	at, known := g.index(e.At)
	if !known {
		return nil
	}
	ns := g.nodes[at]
	// Fresh service, re-initialised; disk contents survive the crash.
	fresh := sm.Restart(s.cfg.Factory, e.At, ns.Svc)
	fx := &sc.fx
	fx.Begin(e.At, nil, edgeRNG(s.cfg.Seed, ns, e, sc))
	fresh.Init(fx)
	next := sc.begin(g, len(g.nodes)-1+len(fx.Sends))
	next.bumpResets(sc)
	// Drop in-flight traffic touching the node. The predicate depends only
	// on the endpoints, so it removes whole (from,to,type) queues: the
	// queue positions baked into surviving items' component hashes still
	// count exactly their same-queue predecessors, and no rehash is needed.
	kept := next.msgs[:0]
	for _, m := range next.msgs {
		if m.From != e.At && m.To != e.At {
			kept = append(kept, m)
		} else {
			next.hsum -= m.chash
			next.encSize -= m.sz
		}
	}
	next.msgs = kept
	// Peers that knew the node hold stale sockets and receive racing RSTs.
	// Iterate in sorted node order: the append order becomes the
	// successor's in-flight order, which event enumeration (and so
	// same-seed searches) must see identically every run.
	for _, peer := range next.nodes {
		if peer.id == e.At {
			continue
		}
		for _, nb := range peer.Svc.Neighbors() {
			if nb == e.At {
				next.setStale(pair{peer.id, e.At}, sc)
				next.addMsg(InFlight{From: e.At, To: peer.id, Msg: nil}, sc)
				break
			}
		}
	}
	// The reset node has no stale knowledge of anyone.
	next.clearStaleFrom(e.At, sc)
	s.dispatchSends(next, e.At, sc)
	next.setNode(e.At, fresh, fx.Timers, sc)
	return next
}

// cand is an enabled transition as enumeration finds it, before anything is
// boxed: its key and, where the event carries one, its payload. The engine
// decides from the key alone whether a transition is slept, so only the ones
// it executes are ever turned into an sm.Event.
type cand struct {
	key  sm.EventKey
	msg  sm.Message // 'M': the queue head's payload
	call sm.AppCall // 'A'
}

// event boxes c as the event it stands for.
func (c *cand) event() sm.Event { return c.key.Event(c.msg, c.call) }

// desc returns c's descriptor (sm.DescOf of its event), fingerprinting a
// delivery's payload on enc.
func (c *cand) desc(enc *sm.Encoder) sm.EventKey {
	k := c.key
	if k.Kind == 'M' {
		k.Arg = sm.PayloadHash(c.msg, enc)
	}
	return k
}

// eventBuf is the reusable enumeration workspace owned by one worker: the
// network and internal candidate slices are recycled across
// states, so steady-state enumeration allocates nothing. The slices handed
// out by networkInto and internalInto alias the buffer and are valid only
// until its next use.
type eventBuf struct {
	network  []cand
	internal []cand // one node's internal actions at a time
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
func (s *Search) networkInto(g *GState, buf *eventBuf) []cand {
	buf.network = buf.network[:0]
	for _, m := range g.msgs {
		if m.pos != 0 {
			continue
		}
		if m.RST() {
			buf.network = append(buf.network,
				cand{key: sm.EventKey{Kind: 'E', From: m.From, Node: m.To}},
				cand{key: sm.EventKey{Kind: 'D', From: m.From, Node: m.To}})
			continue
		}
		buf.network = append(buf.network, cand{key: sm.EventKey{Kind: 'M', From: m.From, Node: m.To, Name: m.Msg.MsgType()}, msg: m.Msg})
	}
	return buf.network
}

// internalAt walks the internal actions enabled at g's i-th node in their
// canonical order and returns how many there are. With out non-nil it also
// appends them to *out, fingerprinting each app call on enc so its key pins
// the call; with out nil it builds nothing, which is all the consequence rule
// needs for a (node, local state) it has already claimed.
//
//crystal:hotpath
func (s *Search) internalAt(g *GState, i int, out *[]cand, enc *sm.Encoder) (n int) {
	ns := g.nodes[i]
	id := ns.id
	// The set is sorted by construction: no iteration order can leak into
	// the transition order same-seed runs replay.
	n = len(ns.Timers)
	if out != nil {
		for _, t := range ns.Timers {
			*out = append(*out, cand{key: sm.EventKey{Kind: 'T', Node: id, Name: string(t)}})
		}
	}
	if ma, ok := ns.Svc.(sm.ModelActions); ok {
		calls := ma.ModelAppCalls()
		n += len(calls)
		if out != nil {
			for _, call := range calls {
				enc.Reset()
				call.EncodeCall(enc)
				*out = append(*out, cand{key: sm.EventKey{Kind: 'A', Node: id, Name: call.CallName(), Arg: enc.Hash()}, call: call})
			}
		}
	}
	if s.cfg.ExploreResets && g.resets < s.cfg.MaxResetsPerPath {
		n++
		if out != nil {
			*out = append(*out, cand{key: sm.EventKey{Kind: 'R', Node: id}})
		}
	}
	if s.cfg.ExploreConnBreaks {
		for _, nb := range ns.Svc.Neighbors() {
			if _, known := g.index(nb); known {
				n++
				if out != nil {
					*out = append(*out, cand{key: sm.EventKey{Kind: 'E', From: nb, Node: id}})
				}
			}
		}
	}
	return n
}

// internalInto lists the internal actions of g's i-th node into buf.
//
//crystal:hotpath
func (s *Search) internalInto(g *GState, i int, buf *eventBuf, enc *sm.Encoder) []cand {
	buf.internal = buf.internal[:0]
	s.internalAt(g, i, &buf.internal, enc)
	return buf.internal
}

// EnabledEvents enumerates the transitions available from g, split into
// message-handler events and internal-action events per node. It is the
// allocating convenience form of networkInto and internalAt for tests, tools
// and custom strategies; the returned containers are freshly allocated and
// owned by the caller.
func (s *Search) EnabledEvents(g *GState) (network []sm.Event, internal map[sm.NodeID][]sm.Event) {
	var buf eventBuf
	enc := sm.NewEncoder()
	box := func(cs []cand) (evs []sm.Event) {
		if len(cs) == 0 {
			return nil
		}
		evs = make([]sm.Event, len(cs))
		for i := range cs {
			evs[i] = cs[i].event()
		}
		return evs
	}
	network = box(s.networkInto(g, &buf))
	internal = make(map[sm.NodeID][]sm.Event, len(g.nodes))
	for i, ns := range g.nodes {
		internal[ns.id] = box(s.internalInto(g, i, &buf, enc))
	}
	return network, internal
}
