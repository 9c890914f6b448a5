package mc

import (
	"math/rand"

	"crystalball/internal/sm"
)

// mcContext implements sm.Context for handler execution inside the checker.
// Sends and timer changes are captured and folded into the successor state.
// The context lives in the per-worker scratch and is reset between events;
// handlers use it only for the duration of one invocation.
type mcContext struct {
	self  sm.NodeID
	ns    *NodeState // the cloned node state being mutated
	sends []InFlight
	rng   *rand.Rand
}

func (c *mcContext) Self() sm.NodeID { return c.self }

func (c *mcContext) Send(to sm.NodeID, msg sm.Message) {
	c.sends = append(c.sends, InFlight{From: c.self, To: to, Msg: msg})
}

func (c *mcContext) SetTimer(t sm.TimerID, d sm.Duration) { c.ns.Timers[t] = true }

func (c *mcContext) CancelTimer(t sm.TimerID) { delete(c.ns.Timers, t) }

func (c *mcContext) TimerPending(t sm.TimerID) bool { return c.ns.Timers[t] }

func (c *mcContext) Rand() *rand.Rand { return c.rng }

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

// apply executes event ev on state g and returns the successor state, or
// nil when the event is not applicable (e.g. delivering a message that is
// not in flight). g itself is never mutated. Every successor constructor
// below maintains the state fingerprint incrementally: the mutation helpers
// (addMsg/removeMsgAt/setStale/clearStale/bumpResets) and the node swap in
// runHandler each adjust the commutative hash sum in O(1), so a successor's
// Hash is ready in O(changed components) when apply returns. All transient
// workspace (encoders, handler context, random stream) comes from sc.
//
//crystal:hotpath
func (s *Search) apply(g *GState, ev sm.Event, sc *scratch) *GState {
	switch e := ev.(type) {
	case sm.MsgEvent:
		return s.applyMessage(g, e, sc)
	case sm.TimerEvent:
		return s.applyTimer(g, e, sc)
	case sm.AppEvent:
		return s.applyApp(g, e, sc)
	case sm.ResetEvent:
		return s.applyReset(g, e, sc)
	case sm.ErrorEvent:
		return s.applyError(g, e, sc)
	case sm.DropEvent:
		return s.applyDrop(g, e, sc)
	default:
		return nil
	}
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
func (s *Search) dispatchSends(next *GState, ctx *mcContext, sc *scratch) {
	for _, sd := range ctx.sends {
		if _, known := next.index(sd.To); !known {
			s.dummyRedirects.Add(1)
			continue
		}
		if next.clearStale(pair{sd.From, sd.To}, sc) {
			// Stale socket discovered: message lost, sender will
			// observe a transport error; the pair is fresh again
			// afterwards (next send reconnects).
			next.addMsg(InFlight{From: sd.To, To: sd.From, Msg: nil}, sc)
			continue
		}
		next.addMsg(sd, sc)
	}
}

// runHandler builds the successor of g for a handler executed at node:
// consumed is the index of the in-flight item the event delivers (negative
// when it delivers none). The successor's in-flight container is built after
// the handler ran, once, at the size the consumed item and the captured
// sends leave it with (a send the dummy node swallows leaves its slot
// unused); a handler that neither consumes nor sends leaves the parent's
// container shared.
//
//crystal:hotpath
func (s *Search) runHandler(g *GState, node sm.NodeID, ev sm.Event, consumed int, sc *scratch, run func(ctx *mcContext)) *GState {
	i, known := g.index(node)
	if !known {
		return nil
	}
	ns := g.nodes[i]
	next := g.shallowClone()
	cloned := ns.clone()
	ctx := &sc.ctx
	ctx.self, ctx.ns, ctx.sends, ctx.rng = node, cloned, ctx.sends[:0], edgeRNG(s.cfg.Seed, ns, ev, sc)
	run(ctx)
	if room := len(ctx.sends); consumed >= 0 {
		next.removeMsgAt(consumed, room, sc)
	} else if room > 0 {
		next.msgs = append(make([]*InFlight, 0, len(g.msgs)+room), g.msgs...)
	}
	s.dispatchSends(next, ctx, sc)
	// All mutations applied: freeze the clone's encoding/hashes (sharing
	// any segment the handler left unchanged with the parent) and swap it
	// into the fingerprint.
	cloned.finalize(node, ns, sc)
	next.swapNode(i, cloned)
	return next
}

//crystal:hotpath
func (s *Search) applyMessage(g *GState, e sm.MsgEvent, sc *scratch) *GState {
	i := findMsg(g, e.From, e.To, e.Msg.MsgType(), false)
	if i < 0 {
		return nil
	}
	msg := g.msgs[i].Msg
	return s.runHandler(g, e.To, e, i, sc, func(ctx *mcContext) {
		ctx.ns.Svc.HandleMessage(ctx, e.From, msg)
	})
}

//crystal:hotpath
func (s *Search) applyTimer(g *GState, e sm.TimerEvent, sc *scratch) *GState {
	ns := g.Node(e.At)
	if ns == nil || !ns.Timers[e.Timer] {
		return nil
	}
	return s.runHandler(g, e.At, e, -1, sc, func(ctx *mcContext) {
		// One-shot semantics: the timer is consumed before the
		// handler runs; periodic services re-arm inside the handler.
		delete(ctx.ns.Timers, e.Timer)
		ctx.ns.Svc.HandleTimer(ctx, e.Timer)
	})
}

//crystal:hotpath
func (s *Search) applyApp(g *GState, e sm.AppEvent, sc *scratch) *GState {
	return s.runHandler(g, e.At, e, -1, sc, func(ctx *mcContext) {
		ctx.ns.Svc.HandleApp(ctx, e.Call)
	})
}

//crystal:hotpath
func (s *Search) applyError(g *GState, e sm.ErrorEvent, sc *scratch) *GState {
	i := findMsg(g, e.Peer, e.At, "", true)
	if i < 0 && !s.cfg.ExploreConnBreaks {
		return nil
	}
	return s.runHandler(g, e.At, e, i, sc, func(ctx *mcContext) {
		ctx.ns.Svc.HandleTransportError(ctx, e.Peer)
	})
}

//crystal:hotpath
func (s *Search) applyDrop(g *GState, e sm.DropEvent, sc *scratch) *GState {
	i := findMsg(g, e.From, e.To, "", true)
	if i < 0 {
		return nil
	}
	next := g.shallowClone()
	next.removeMsgAt(i, 0, sc)
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
//crystal:hotpath
func (s *Search) applyReset(g *GState, e sm.ResetEvent, sc *scratch) *GState {
	at, known := g.index(e.At)
	if !known {
		return nil
	}
	ns := g.nodes[at]
	next := g.shallowClone()
	next.bumpResets(sc)
	// Drop in-flight traffic touching the node. The predicate depends only
	// on the endpoints, so it removes whole (from,to,type) queues: the
	// queue positions baked into surviving items' component hashes still
	// count exactly their same-queue predecessors, and no rehash is needed.
	// The survivors go into a container of the successor's own, sized for
	// the case that all survive and every peer is sent an RST below.
	next.msgs = make([]*InFlight, 0, len(g.msgs)+len(g.ids)-1)
	for _, m := range g.msgs {
		if m.From != e.At && m.To != e.At {
			next.msgs = append(next.msgs, m)
		} else {
			next.hsum -= m.chash
			next.encSize -= m.sz
		}
	}
	// Peers that knew the node hold stale sockets and receive racing RSTs.
	// Iterate in sorted node order: the append order becomes the
	// successor's in-flight order, which event enumeration (and so
	// same-seed random walks) must see identically every run.
	for i, id := range next.ids {
		if id == e.At {
			continue
		}
		for _, nb := range next.nodes[i].Svc.Neighbors() {
			if nb == e.At {
				next.setStale(pair{id, e.At}, sc)
				next.addMsg(InFlight{From: e.At, To: id, Msg: nil}, sc)
				break
			}
		}
	}
	// The reset node has no stale knowledge of anyone.
	next.clearStaleFrom(e.At, sc)
	// Fresh service, re-initialised; disk contents survive the crash.
	var stable []byte
	if ss, ok := ns.Svc.(sm.StableStore); ok {
		stable = ss.StableBytes()
	}
	fresh := &NodeState{Svc: s.cfg.Factory(e.At), Timers: make(map[sm.TimerID]bool)}
	if ss, ok := fresh.Svc.(sm.StableStore); ok && stable != nil {
		ss.RestoreStable(stable)
	}
	ctx := &sc.ctx
	ctx.self, ctx.ns, ctx.sends, ctx.rng = e.At, fresh, ctx.sends[:0], edgeRNG(s.cfg.Seed, ns, e, sc)
	fresh.Svc.Init(ctx)
	s.dispatchSends(next, ctx, sc)
	fresh.finalize(e.At, ns, sc)
	next.swapNode(at, fresh)
	return next
}

// msgKey identifies an in-flight (from, to, type) triple for delivery
// deduplication; rst distinguishes RST notifications from service messages.
type msgKey struct {
	from, to sm.NodeID
	typ      string
	rst      bool
}

// eventBuf is the reusable enumeration workspace owned by one worker (or
// one walk): the network/internal event slices and the message-dedup set
// are recycled across states, so steady-state enumeration does not
// allocate. The slices handed out by enabledInto alias the buffer and are
// valid only until its next use.
type eventBuf struct {
	network  []sm.Event
	internal [][]sm.Event
	seen     map[msgKey]struct{}
	all      []sm.Event // random-walk candidate buffer
}

// enabledInto enumerates the transitions available from g into buf,
// returning the message-handler events (the paper's H_M: deliveries, error
// notifications, RST drops), the sorted node ids, and the internal-action
// events per node (H_A: timers, application calls, resets) aligned with the
// ids. Consequence prediction prunes only the latter. It only reads g, so
// concurrent workers may enumerate a shared state freely (each through its
// own buffer). Enumeration order is deterministic — in-flight slice order
// for H_M, sorted timer ids then model app calls, reset and conn-break
// events for H_A — so same-seed explorations pick the same transitions
// every run.
//
//crystal:hotpath
func (s *Search) enabledInto(g *GState, buf *eventBuf) (network []sm.Event, ids []sm.NodeID, internal [][]sm.Event) {
	if buf.seen == nil {
		buf.seen = make(map[msgKey]struct{})
	} else {
		clear(buf.seen)
	}
	buf.network = buf.network[:0]
	for _, m := range g.msgs {
		if m.RST() {
			key := msgKey{from: m.From, to: m.To, rst: true}
			if _, dup := buf.seen[key]; dup {
				continue // identical RSTs collapse
			}
			buf.seen[key] = struct{}{}
			buf.network = append(buf.network,
				sm.ErrorEvent{At: m.To, Peer: m.From},
				sm.DropEvent{From: m.From, To: m.To})
			continue
		}
		// Deliver only the first in-flight instance of identical
		// (from,to,type) triples; FIFO-per-pair keeps the state count
		// down and matches live TCP ordering.
		key := msgKey{from: m.From, to: m.To, typ: m.Msg.MsgType()}
		if _, dup := buf.seen[key]; dup {
			continue
		}
		buf.seen[key] = struct{}{}
		buf.network = append(buf.network, sm.MsgEvent{From: m.From, To: m.To, Msg: m.Msg})
	}
	ids = g.ids
	if cap(buf.internal) < len(ids) {
		buf.internal = make([][]sm.Event, len(ids))
	}
	buf.internal = buf.internal[:len(ids)]
	for i, id := range ids {
		ns := g.nodes[i]
		evs := buf.internal[i][:0]
		// timerNames is precomputed sorted by finalize: map iteration
		// order cannot leak into the transition order same-seed runs
		// replay.
		for _, t := range ns.timerNames {
			evs = append(evs, sm.TimerEvent{At: id, Timer: sm.TimerID(t)})
		}
		if ma, ok := ns.Svc.(sm.ModelActions); ok {
			for _, call := range ma.ModelAppCalls() {
				evs = append(evs, sm.AppEvent{At: id, Call: call})
			}
		}
		if s.cfg.ExploreResets && g.resets < s.cfg.MaxResetsPerPath {
			evs = append(evs, sm.ResetEvent{At: id})
		}
		if s.cfg.ExploreConnBreaks {
			for _, nb := range ns.Svc.Neighbors() {
				if _, known := g.index(nb); known {
					evs = append(evs, sm.ErrorEvent{At: id, Peer: nb})
				}
			}
		}
		buf.internal[i] = evs
	}
	return buf.network, ids, buf.internal
}

// EnabledEvents enumerates the transitions available from g, split into
// message-handler events and internal-action events per node. It is the
// allocating convenience form of enabledInto for tests, tools and custom
// strategies; the returned containers are freshly allocated and owned by
// the caller.
func (s *Search) EnabledEvents(g *GState) (network []sm.Event, internal map[sm.NodeID][]sm.Event) {
	var buf eventBuf
	net, ids, internalBuf := s.enabledInto(g, &buf)
	network = append([]sm.Event(nil), net...)
	internal = make(map[sm.NodeID][]sm.Event, len(ids))
	for i, id := range ids {
		internal[id] = append([]sm.Event(nil), internalBuf[i]...)
	}
	return network, internal
}
