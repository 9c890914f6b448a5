// Package simnet is an in-memory network substrate with TCP-like
// semantics, driven by the discrete-event simulator.
//
// It reproduces the transport behaviours the CrystalBall paper's bug
// scenarios depend on:
//
//   - reliable FIFO delivery per connection (TCP-like), with transmission
//     delay from path latency, bottleneck bandwidth and loss-induced
//     retransmissions;
//   - node resets that break connections, where the RST notification to each
//     peer can itself be lost (Figure 9: "its TCP RST packet to its parent
//     (69) is lost") or suppressed entirely (a silent reset, Figure 2);
//   - stale-connection discovery on the next send attempt (Figure 3: "the
//     stale information about n13 in n9 is removed once n9 ... attempts to
//     communicate with n13");
//   - partitions that sever pairs of nodes (the Paxos scenario, Figure 13);
//   - per-kind bandwidth accounting so checkpoint traffic can be reported
//     separately from service traffic (paper section 5.5);
//   - control connections of their own, so observing a node does not change
//     what its service sees: a control send never opens, closes or finds
//     stale a connection the service uses, and a failure it meets reaches
//     Handler.HandleControlError, not the service.
package simnet

import (
	"slices"
	"time"

	"crystalball/internal/sim"
	"crystalball/internal/sm"
)

// Handler receives network events for one node. The runtime implements it.
type Handler interface {
	// HandleDeliver is invoked when a message arrives.
	HandleDeliver(from sm.NodeID, payload any)
	// HandleConnError is invoked when the TCP-like connection to peer is
	// discovered broken (RST received, peer dead, or stale on send).
	HandleConnError(peer sm.NodeID)
	// HandleControlError is HandleConnError for the control connection to
	// peer, the one non-service traffic travels on.
	HandleControlError(peer sm.NodeID)
}

// UniformPath is the network's path model: the same one-way latency, loss
// probability and bottleneck bandwidth in bits/s (0 = 1 Gbps) between every
// pair of nodes.
type UniformPath struct {
	Latency time.Duration
	Loss    float64
	BwBps   float64
}

// Kind labels traffic classes for bandwidth accounting.
type Kind string

// Traffic classes used across the repository.
const (
	KindService    Kind = "service"    // service protocol messages
	KindCheckpoint Kind = "checkpoint" // snapshot/checkpoint traffic
	KindControl    Kind = "control"    // misc control traffic
)

// connKey names a connection: the ordered pair, so both directions share
// one connection object, and whether it carries control traffic (every kind
// but KindService). A partition is keyed by the pair alone (ctl false).
type connKey struct {
	a, b sm.NodeID
	ctl  bool
}

func keyFor(x, y sm.NodeID, ctl bool) connKey {
	if x < y {
		return connKey{x, y, ctl}
	}
	return connKey{y, x, ctl}
}

// conn is a TCP-like bidirectional connection. Each endpoint records the
// incarnation of each endpoint at establishment; a mismatch at send or
// delivery time means an endpoint has reset and the connection is stale.
// When a connection dies, each endpoint may or may not be aware of it: an
// unaware endpoint holds a stale socket and discovers the break (with a
// ConnError) on its next send, which is the behaviour the paper's Figure 3
// steering scenario relies on.
type conn struct {
	key         connKey
	incarnation map[sm.NodeID]uint64 // incarnation of each endpoint when established
	lastArrival map[sm.NodeID]sim.Time
	closed      bool
	aware       map[sm.NodeID]bool // endpoint knows the conn is dead
}

func (c *conn) close(awareOf ...sm.NodeID) {
	c.closed = true
	if c.aware == nil {
		c.aware = make(map[sm.NodeID]bool, 2)
	}
	for _, id := range awareOf {
		c.aware[id] = true
	}
}

// nodeState is simnet's per-node bookkeeping.
type nodeState struct {
	handler     Handler
	alive       bool
	incarnation uint64
	lastTxEnd   sim.Time
	bytesOut    map[Kind]int64
	msgsOut     int64
}

// Network simulates the transport layer among a set of nodes.
type Network struct {
	sim   *sim.Simulator
	path  UniformPath
	nodes map[sm.NodeID]*nodeState
	conns map[connKey]*conn
	parts map[connKey]bool // severed pairs
	rng   rngSource        // service traffic's losses (rngOf)
}

const (
	// errDelay is the delay before a ConnError reaches the caller.
	errDelay = 2 * time.Millisecond
	// rto is the extra delay charged when a TCP segment is "lost" and
	// retransmitted (loss never drops TCP payloads, it delays them).
	rto = 200 * time.Millisecond
)

type rngSource interface {
	Float64() float64
	Int63n(int64) int64
}

// New creates a network on the simulator with the given path model.
func New(s *sim.Simulator, path UniformPath) *Network {
	if path.BwBps <= 0 {
		path.BwBps = 1e9
	}
	return &Network{
		sim:   s,
		path:  path,
		nodes: make(map[sm.NodeID]*nodeState),
		conns: make(map[connKey]*conn),
		parts: make(map[connKey]bool),
		rng:   s.RNG("simnet"),
	}
}

// Register attaches a handler for node id and marks it alive.
func (n *Network) Register(id sm.NodeID, h Handler) {
	st := n.state(id)
	st.handler = h
	st.alive = true
}

func (n *Network) state(id sm.NodeID) *nodeState {
	st, ok := n.nodes[id]
	if !ok {
		st = &nodeState{
			alive:    false,
			bytesOut: make(map[Kind]int64),
		}
		n.nodes[id] = st
	}
	return st
}

// Partition severs (broken=true) or heals (broken=false) the pair a,b.
// While severed, sends in either direction behave like a broken connection:
// the sender gets a ConnError and the message is dropped.
func (n *Network) Partition(a, b sm.NodeID, broken bool) {
	k := keyFor(a, b, false)
	if broken {
		n.parts[k] = true
		for _, k := range []connKey{k, keyFor(a, b, true)} {
			if c, ok := n.conns[k]; ok {
				// Neither side is told; each discovers on next send
				// (the partition check errors every send anyway).
				c.close()
				delete(n.conns, k)
			}
		}
	} else {
		delete(n.parts, k)
	}
}

// PartitionNode severs (or heals) node id from every other registered node.
func (n *Network) PartitionNode(id sm.NodeID, broken bool) {
	for _, other := range n.nodeIDs() {
		if other != id {
			n.Partition(id, other, broken)
		}
	}
}

// nodeIDs returns the registered node IDs in sorted order, so that fan-out
// operations never depend on map iteration order.
func (n *Network) nodeIDs() []sm.NodeID {
	ids := make([]sm.NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Reset simulates a node crash+restart: its incarnation bumps (so all of its
// connections become stale) and, unless silent, an RST notification is sent
// toward each connected peer, each independently subject to loss. The caller
// is responsible for reinitialising the node's service state.
func (n *Network) Reset(id sm.NodeID, silent bool) {
	st := n.state(id)
	st.incarnation++
	st.alive = true
	type broken struct {
		peer sm.NodeID
		c    *conn
	}
	// The RST fan-out below draws from the seeded rngs once per connection,
	// so the connections go in (peer, service before control) order, never
	// in map iteration order, or same-seed runs would diverge.
	var peers []broken
	for _, peer := range n.nodeIDs() {
		for _, ctl := range []bool{false, true} {
			if c, ok := n.conns[keyFor(id, peer, ctl)]; ok {
				peers = append(peers, broken{peer, c})
			}
		}
	}
	for _, b := range peers {
		// The resetting node is trivially "aware": its fresh
		// incarnation knows nothing of the old socket and will
		// reconnect cleanly. The peer holds a stale socket until it
		// receives the RST or tries to send.
		b.c.close(id)
	}
	if silent {
		return
	}
	for _, b := range peers {
		b := b
		// The RST is a raw segment: it can be lost outright (paper
		// Figure 9), in which case the peer only discovers the break
		// on its next send attempt.
		if n.rngOf(b.c.key.ctl).Float64() < n.path.Loss {
			continue
		}
		n.sim.After(n.path.Latency, func() {
			b.c.aware[b.peer] = true
			ps := n.state(b.peer)
			if ps.alive && ps.handler != nil {
				connError(ps.handler, id, b.c.key.ctl)
			}
		})
	}
}

// LoopbackLatency is the delivery delay for a node's messages to itself:
// loopback traffic never touches the network stack's wire path.
const LoopbackLatency = 50 * time.Microsecond

// Send transmits payload of the given size from -> to over the TCP-like
// transport with traffic class kind. Delivery is reliable and FIFO per
// connection; broken/stale/partitioned paths produce an asynchronous
// ConnError at the sender instead.
func (n *Network) Send(from, to sm.NodeID, payload any, size int, kind Kind) {
	src := n.state(from)
	if !src.alive {
		return // dead nodes do not send
	}
	if from == to {
		// Loopback: near-instant, lossless, unaffected by pacing.
		inc := src.incarnation
		n.sim.After(LoopbackLatency, func() {
			if src.alive && src.incarnation == inc && src.handler != nil {
				src.handler.HandleDeliver(from, payload)
			}
		})
		src.bytesOut[kind] += int64(size)
		src.msgsOut++
		return
	}
	src.bytesOut[kind] += int64(size)
	src.msgsOut++
	ctl := kind != KindService
	if n.parts[keyFor(from, to, false)] {
		n.deliverError(from, to, ctl)
		return
	}
	dst := n.state(to)
	if !dst.alive {
		n.deliverError(from, to, ctl)
		return
	}
	k := keyFor(from, to, ctl)
	c, ok := n.conns[k]
	if ok {
		// Stale if closed or either endpoint reset since establishment.
		if c.closed || c.incarnation[from] != src.incarnation || c.incarnation[to] != dst.incarnation {
			// A sender that is aware the socket died (it reset, it
			// initiated the close, or it received the RST) simply
			// reconnects; an unaware sender discovers the break
			// now and gets an error instead of a delivery.
			aware := c.aware[from] || c.incarnation[from] != src.incarnation
			c.close()
			delete(n.conns, k)
			if !aware {
				n.deliverError(from, to, ctl)
				return
			}
			ok = false
		}
	}
	if !ok {
		c = &conn{
			key:         k,
			incarnation: map[sm.NodeID]uint64{from: src.incarnation, to: dst.incarnation},
			lastArrival: map[sm.NodeID]sim.Time{},
		}
		n.conns[k] = c
	}
	// Outbound link serialization: transmissions queue behind each other.
	txTime := time.Duration(float64(size*8) / n.path.BwBps * float64(time.Second))
	start := n.sim.Now()
	if src.lastTxEnd > start {
		start = src.lastTxEnd
	}
	end := start.Add(txTime)
	src.lastTxEnd = end
	delay := end.Sub(n.sim.Now()) + n.path.Latency
	// TCP does not drop payloads; loss manifests as retransmission delay.
	for n.rngOf(ctl).Float64() < n.path.Loss {
		delay += rto
	}
	arrival := n.sim.Now().Add(delay)
	if la := c.lastArrival[to]; arrival < la {
		arrival = la // FIFO per direction
	}
	c.lastArrival[to] = arrival
	destInc := dst.incarnation
	n.sim.At(arrival, func() {
		ds := n.state(to)
		// The connection (and its buffered data) dies if either side
		// reset or the pair was severed in flight.
		if !ds.alive || ds.incarnation != destInc || n.conns[k] != c || c.closed {
			return
		}
		if n.parts[keyFor(from, to, false)] {
			return
		}
		if ds.handler != nil {
			ds.handler.HandleDeliver(from, payload)
		}
	})
}

// deliverError schedules a ConnError(to) at node from, for its control
// connection if ctl.
func (n *Network) deliverError(from, to sm.NodeID, ctl bool) {
	inc := n.state(from).incarnation
	n.sim.After(errDelay, func() {
		fs := n.state(from)
		if fs.alive && fs.incarnation == inc && fs.handler != nil {
			connError(fs.handler, to, ctl)
		}
	})
}

// connError tells h that its connection to peer broke: the service's, or
// the control connection's if ctl.
func connError(h Handler, peer sm.NodeID, ctl bool) {
	if ctl {
		h.HandleControlError(peer)
	} else {
		h.HandleConnError(peer)
	}
}

// rngOf returns the loss stream of a connection's traffic class: control
// traffic draws from a stream of its own, so it leaves the service's draws
// alone. That stream is made on first use, so a network that carries no
// control traffic never seeds it.
func (n *Network) rngOf(ctl bool) rngSource {
	if ctl {
		return n.sim.RNG("simnet-control")
	}
	return n.rng
}

// BreakConn severs the current connection between a and b (if any) without
// a partition: both sides will discover on next use; if notify is true, both
// sides get an immediate ConnError (like an application-initiated RST, which
// execution steering uses as a corrective action).
func (n *Network) BreakConn(a, b sm.NodeID, notify bool) {
	k := keyFor(a, b, false)
	c, ok := n.conns[k]
	if !ok {
		// No live connection object; still create a tombstone so the
		// peer's next send can observe the break when notify is off.
		c = &conn{key: k, incarnation: map[sm.NodeID]uint64{}, lastArrival: map[sm.NodeID]sim.Time{}}
		n.conns[k] = c
	}
	c.close(a) // the initiator knows
	if notify {
		bs := n.state(b)
		bInc := bs.incarnation
		n.sim.After(n.path.Latency, func() {
			c.aware[b] = true
			if bs.alive && bs.incarnation == bInc && bs.handler != nil {
				bs.handler.HandleConnError(a)
			}
		})
	}
}

// TotalBytesOut sums sent bytes for a kind across all nodes.
func (n *Network) TotalBytesOut(kind Kind) int64 {
	var total int64
	for _, st := range n.nodes {
		total += st.bytesOut[kind]
	}
	return total
}

// MessagesOut reports the number of messages node id has sent.
func (n *Network) MessagesOut(id sm.NodeID) int64 { return n.state(id).msgsOut }
