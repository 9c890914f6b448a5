// Package runtime hosts a service state machine on a simulated node: it is
// the "Runtime" box of the paper's Figure 7.
//
// The runtime demultiplexes network messages, fires timers and forwards
// application calls into the service's handlers — through sm.Deliver, the
// executor the model checker runs them with; it also implements the two
// enforcement mechanisms of CrystalBall's execution steering mode:
//
//   - event filters (paper section 3.3), which temporarily block a handler:
//     matching messages are dropped (optionally with a connection reset
//     toward the sender), matching timers are rescheduled rather than
//     dropped;
//   - the immediate safety check (ISC), which speculatively executes the
//     handler on a clone of the state machine, checks the safety properties
//     on the result, and suppresses the real execution if they fail — the
//     equivalent of the paper's fork()-based speculative execution.
//
// Every outgoing service message is wrapped in an Envelope carrying the
// node's checkpoint number, which the snapshot manager uses to maintain
// consistent-cut checkpoints (paper section 2.3).
package runtime

import (
	"math/rand"
	"slices"
	"time"

	"crystalball/internal/props"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
)

// Envelope wraps a service message with the sender's checkpoint number.
type Envelope struct {
	CN  uint64
	Msg sm.Message
}

// ControlEnvelope wraps non-service (checkpoint manager) traffic; it also
// carries the checkpoint number, since control messages are part of the
// distributed computation's causal order.
type ControlEnvelope struct {
	CN      uint64
	Payload any
}

// envelopeHeader approximates the wire overhead of the CN stamp.
const envelopeHeader = 8

// filterDeferDelay is how long a filtered or ISC-blocked timer is pushed back.
const filterDeferDelay = 500 * time.Millisecond

// CheckpointHook lets the snapshot manager participate in message flow.
type CheckpointHook interface {
	// OutgoingCN returns the checkpoint number to stamp on messages.
	OutgoingCN() uint64
	// IncomingCN runs before a message with the given stamp is
	// processed; the manager takes a forced checkpoint when needed.
	IncomingCN(cn uint64)
	// HandleControl processes checkpoint-protocol payloads.
	HandleControl(from sm.NodeID, payload any)
	// PeerError tells the manager a transport error was observed for
	// peer; a collection in progress proclaims the peer dead (paper
	// section 3.1, "Enforcing Snapshot Consistency").
	PeerError(peer sm.NodeID)
}

// Stats counts runtime activity for the experiments.
type Stats struct {
	ActionsExecuted int64 // handler invocations that ran
	MessagesDropped int64 // messages blocked by event filters
	TimersDeferred  int64 // timer firings rescheduled by event filters
	AppsBlocked     int64 // app calls blocked by event filters
	ISCChecks       int64 // speculative executions performed
	ISCBlocks       int64 // handler executions suppressed by the ISC
	Resets          int64 // node resets
	TransportErrors int64 // ConnError events delivered to the service
}

// ActionsChanged is how many of the node's actions steering altered: the
// messages, timer firings and app calls its filters held back plus the
// handler executions the immediate safety check suppressed.
func (s Stats) ActionsChanged() int64 {
	return s.MessagesDropped + s.TimersDeferred + s.AppsBlocked + s.ISCBlocks
}

// Node binds one service instance to the simulated network.
type Node struct {
	ID       sm.NodeID
	sim      *sim.Simulator
	net      *simnet.Network
	factory  sm.Factory
	svc      sm.Service
	timers   map[sm.TimerID]*sim.Timer
	filters  []sm.Filter
	seed     int64
	eventSeq uint64
	// rng is the node's one random stream, re-seeded per handler
	// invocation (invocationRNG).
	rng *rand.Rand

	ckpt CheckpointHook

	iscProps props.Set
	iscView  func() *props.View
	iscOn    bool
	// iscFx buffers the speculative execution's effects, iscSpare is the
	// service copy the handler runs on, and iscEval is its evaluation view,
	// all reused across every ISC check this node performs (the check runs
	// on the single simulator goroutine). Only the containers are reused;
	// their contents are refilled per check.
	iscFx    sm.Effects
	iscSpare sm.Service
	iscEval  *props.View

	// OnEvent, if set, runs after every executed handler. Outside tests
	// only scenario.Deployment.RecordGroundTruth sets it, to evaluate the
	// scenario's properties on the live system per action.
	OnEvent func(ev sm.Event)

	Stats Stats
}

// NewNode creates a node, registers it on the network and initialises the
// service.
func NewNode(s *sim.Simulator, net *simnet.Network, id sm.NodeID, factory sm.Factory) *Node {
	n := &Node{
		ID:      id,
		sim:     s,
		net:     net,
		factory: factory,
		timers:  make(map[sm.TimerID]*sim.Timer),
		seed:    s.Seed() ^ (int64(id) << 20),
		rng:     sm.NewRand(0),
	}
	net.Register(id, n)
	n.svc = factory(id)
	n.svc.Init(n.liveCtx())
	return n
}

// Service returns the live service instance (read-only use by harnesses).
func (n *Node) Service() sm.Service { return n.svc }

// TimerSet returns the currently pending timer names, as a set of the
// caller's own.
func (n *Node) TimerSet() sm.TimerSet {
	out := make(sm.TimerSet, 0, len(n.timers))
	for t := range n.timers {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// View returns the node's (service, timers) pair for property evaluation.
func (n *Node) View() (sm.Service, sm.TimerSet) { return n.svc, n.TimerSet() }

// SetCheckpointHook attaches the snapshot manager.
func (n *Node) SetCheckpointHook(h CheckpointHook) { n.ckpt = h }

// EnableISC turns on the immediate safety check with the given properties;
// view supplies the latest neighborhood snapshot to evaluate against.
func (n *Node) EnableISC(ps props.Set, view func() *props.View) {
	n.iscProps, n.iscView, n.iscOn = ps, view, true
}

// InstallFilter adds an event filter (steering action).
func (n *Node) InstallFilter(f sm.Filter) { n.filters = append(n.filters, f) }

// ClearFilters removes all event filters; the controller does this after
// every model-checking round (paper: "CrystalBall ... removes the filters
// from the runtime after every model checking run").
func (n *Node) ClearFilters() { n.filters = nil }

// Filters returns the installed filters (for tests and reports).
func (n *Node) Filters() []sm.Filter { return append([]sm.Filter(nil), n.filters...) }

// Reset simulates a crash+restart of this node: fresh service state, all
// timers gone, all connections broken (silently when silent is true).
func (n *Node) Reset(silent bool) {
	n.Stats.Resets++
	n.net.Reset(n.ID, silent)
	for _, t := range n.timers {
		t.Cancel()
	}
	n.timers = make(map[sm.TimerID]*sim.Timer)
	// Disk contents survive the crash; everything else is lost.
	n.svc = sm.Restart(n.factory(n.ID), n.svc)
	n.svc.Init(n.liveCtx())
}

// App delivers an application call to the service (e.g. "join the overlay").
func (n *Node) App(call sm.AppCall) {
	ev := sm.AppInvocation(n.ID, call, nil)
	if _, ok := sm.FilterFor(n.filters, ev); ok {
		n.Stats.AppsBlocked++
		return
	}
	if n.iscBlocks(ev) {
		return
	}
	n.dispatch(ev)
}

// HandleDeliver implements simnet.Handler.
func (n *Node) HandleDeliver(from sm.NodeID, payload any) {
	switch env := payload.(type) {
	case ControlEnvelope:
		if n.ckpt != nil {
			n.ckpt.IncomingCN(env.CN)
			n.ckpt.HandleControl(from, env.Payload)
		}
	case Envelope:
		if n.ckpt != nil {
			n.ckpt.IncomingCN(env.CN)
		}
		ev := sm.Delivery(from, n.ID, env.Msg)
		if f, ok := sm.FilterFor(n.filters, ev); ok {
			n.Stats.MessagesDropped++
			if f.BreakConn {
				n.net.BreakConn(n.ID, from)
			}
			return
		}
		if n.iscBlocks(ev) {
			// The ISC's corrective action mirrors a message filter:
			// drop and reset the connection so the sender cleans up.
			n.net.BreakConn(n.ID, from)
			return
		}
		n.dispatch(ev)
	}
}

// HandleConnError implements simnet.Handler.
func (n *Node) HandleConnError(peer sm.NodeID) {
	n.Stats.TransportErrors++
	if n.ckpt != nil {
		n.ckpt.PeerError(peer)
	}
	n.dispatch(sm.TransportError(n.ID, peer))
}

// HandleControlError implements simnet.Handler: a failure met by checkpoint
// traffic, which has connections of its own, concerns the snapshot manager
// alone and never reaches the service.
func (n *Node) HandleControlError(peer sm.NodeID) {
	if n.ckpt != nil {
		n.ckpt.PeerError(peer)
	}
}

// fireTimer runs when a scheduled timer expires. The timer stays in the
// pending set until its handler really runs (sm.Deliver consumes it), so the
// ISC's pre-state still holds it; the deferring paths schedule over the fired
// entry.
func (n *Node) fireTimer(t sm.TimerID) {
	ev := sm.TimerFiring(n.ID, t)
	if _, ok := sm.FilterFor(n.filters, ev); ok {
		// Filtered timers are rescheduled, not dropped (paper
		// section 4, "Event Filtering for Execution steering").
		n.Stats.TimersDeferred++
		n.scheduleTimer(t, filterDeferDelay)
		return
	}
	if n.iscBlocks(ev) {
		n.scheduleTimer(t, filterDeferDelay)
		return
	}
	n.dispatch(ev)
}

// dispatch executes ev's handler for real.
func (n *Node) dispatch(ev sm.Event) {
	n.eventSeq++
	n.Stats.ActionsExecuted++
	sm.Deliver(n.svc, n.liveCtx(), ev)
	if n.OnEvent != nil {
		n.OnEvent(ev)
	}
}

// invocationRNG returns the deterministic random stream of the handler
// invocation that runs once seq events have been counted. dispatch counts
// an event before its handler runs, so the live handler draws the stream of
// the incremented eventSeq; the ISC's speculative run of the same event
// comes before that count and asks for eventSeq+1, so the two draw alike.
// It is the node's one Rand, re-seeded: Seed resets all its state, so the
// stream is the one a fresh sm.NewRand with the same seed draws. Each
// invocation re-seeds before its handler runs and draws nothing after it
// returns (the ISC's speculative run ends before the live run begins), so no
// two invocations share it.
func (n *Node) invocationRNG(seq uint64) *rand.Rand {
	n.rng.Seed(invocationSeed(n.seed, seq))
	return n.rng
}

// invocationSeed is the seed of the invocation that follows eventSeq
// executed events at a node seeded with seed.
func invocationSeed(seed int64, eventSeq uint64) int64 {
	return seed ^ int64(eventSeq+1)*0x9e3779b9
}

// liveCtx returns a context that applies effects for real.
func (n *Node) liveCtx() sm.Context {
	return &liveContext{node: n, rng: n.invocationRNG(n.eventSeq)}
}

type liveContext struct {
	node *Node
	rng  *rand.Rand
}

func (c *liveContext) Self() sm.NodeID { return c.node.ID }

func (c *liveContext) Send(to sm.NodeID, msg sm.Message) {
	var cn uint64
	if c.node.ckpt != nil {
		cn = c.node.ckpt.OutgoingCN()
	}
	c.node.net.Send(c.node.ID, to, Envelope{CN: cn, Msg: msg},
		msg.Size()+envelopeHeader, simnet.KindService)
}

func (c *liveContext) SetTimer(t sm.TimerID, d sm.Duration) {
	c.node.scheduleTimer(t, time.Duration(d))
}

func (c *liveContext) CancelTimer(t sm.TimerID) {
	if tm, ok := c.node.timers[t]; ok {
		tm.Cancel()
		delete(c.node.timers, t)
	}
}

func (c *liveContext) TimerPending(t sm.TimerID) bool {
	_, ok := c.node.timers[t]
	return ok
}

func (c *liveContext) Rand() *rand.Rand { return c.rng }

func (n *Node) scheduleTimer(t sm.TimerID, d time.Duration) {
	if tm, ok := n.timers[t]; ok {
		tm.Cancel()
	}
	n.timers[t] = n.sim.After(d, func() { n.fireTimer(t) })
}

// SendControl transmits a checkpoint-protocol payload to a peer.
func (n *Node) SendControl(to sm.NodeID, payload any, size int) {
	var cn uint64
	if n.ckpt != nil {
		cn = n.ckpt.OutgoingCN()
	}
	n.net.Send(n.ID, to, ControlEnvelope{CN: cn, Payload: payload},
		size+envelopeHeader, simnet.KindCheckpoint)
}

// iscBlocks speculatively executes ev's handler on a copy of the state
// machine and reports whether the immediate safety check vetoes the real
// execution.
// The veto applies only to violations the handler would *introduce*:
// properties already violated before the handler runs (a pre-existing
// inconsistency the protocol may be in the middle of repairing) do not
// cause blocking, otherwise a single persistent violation would freeze the
// node entirely.
func (n *Node) iscBlocks(ev sm.Event) bool {
	if !n.iscOn || len(n.iscProps) == 0 {
		return false
	}
	n.Stats.ISCChecks++
	// The speculative run's sends are held back (paper: "holds the
	// transmission of messages until the successful completion of the
	// consistency check") and then simply discarded: the real execution
	// re-runs the handler with an identical random stream (the one dispatch
	// seeds after counting the event) and re-issues them.
	pending := n.TimerSet()
	spec := &n.iscFx
	spec.Begin(n.ID, pending, n.invocationRNG(n.eventSeq+1))
	// The copy is the node's spare: the previous check's view still
	// references it, but that view is Reset before it is filled again.
	specSvc := n.svc.CloneInto(n.iscSpare)
	n.iscSpare = specSvc
	if !sm.Deliver(specSvc, spec, ev) {
		return false
	}
	// Evaluate the properties on the last known neighborhood snapshot
	// with this node's entry replaced by the speculative post-state, then
	// by the current (pre) state. The evaluation view is owned by the node
	// and refilled per check (Add copies the service/timer references into
	// view-owned NodeViews, so the snapshot view is never aliased and reuse
	// cannot corrupt it).
	if n.iscEval == nil {
		n.iscEval = props.NewView()
	}
	view := n.iscEval
	view.Reset()
	if n.iscView != nil {
		if nv := n.iscView(); nv != nil {
			nodes := nv.Nodes()
			for i, id := range nv.IDs() {
				view.Add(id, nodes[i].Svc, nodes[i].Timers)
			}
		}
	}
	view.Add(n.ID, specSvc, spec.Timers)
	violatedPost := n.iscProps.Check(view)
	if len(violatedPost) == 0 {
		return false
	}
	view.Add(n.ID, n.svc, pending) // replaces the post-state
	violatedPre := n.iscProps.Check(view)
	for _, p := range violatedPost {
		if !slices.Contains(violatedPre, p) {
			n.Stats.ISCBlocks++
			return true
		}
	}
	return false
}
