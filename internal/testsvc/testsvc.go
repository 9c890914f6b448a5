// Package testsvc provides a minimal service state machine used by tests
// across the repository: nodes gossip a monotonically growing counter and
// track the peers they have heard from. It exercises every Service hook
// (messages, timers, app calls, transport errors, reset) without the
// complexity of the real protocols.
package testsvc

import (
	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// TimerGossip is the periodic gossip timer.
const TimerGossip sm.TimerID = "gossip"

// Counter is the gossip payload.
type Counter struct{ N int }

// MsgType implements sm.Message.
func (Counter) MsgType() string { return "Counter" }

// Size implements sm.Message.
func (Counter) Size() int { return 8 }

// EncodeMsg implements sm.Message.
func (c Counter) EncodeMsg(e *sm.Encoder) { e.Int(c.N) }

// Bump is an app call that increments the local counter and gossips it.
type Bump struct{}

// CallName implements sm.AppCall.
func (Bump) CallName() string { return "Bump" }

// EncodeCall implements sm.AppCall.
func (Bump) EncodeCall(e *sm.Encoder) {}

// Svc is the test service. Exported fields let tests inspect and stage
// state directly.
type Svc struct {
	Self    sm.NodeID
	N       int
	Peers   map[sm.NodeID]bool
	Errors  int
	Inits   int
	Gossips int
}

// New is the sm.Factory for Svc.
func New(self sm.NodeID) sm.Service {
	return &Svc{Self: self, Peers: make(map[sm.NodeID]bool)}
}

// NewWithPeers returns a factory pre-populating the peer set, so nodes
// gossip to each other from the start.
func NewWithPeers(peers ...sm.NodeID) sm.Factory {
	return func(self sm.NodeID) sm.Service {
		s := &Svc{Self: self, Peers: make(map[sm.NodeID]bool)}
		for _, p := range peers {
			if p != self {
				s.Peers[p] = true
			}
		}
		return s
	}
}

// Init implements sm.Service.
func (s *Svc) Init(ctx sm.Context) {
	s.Inits++
	ctx.SetTimer(TimerGossip, sm.Second)
}

// HandleMessage implements sm.Service.
func (s *Svc) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	c, ok := msg.(Counter)
	if !ok {
		return
	}
	s.Peers[from] = true
	if c.N > s.N {
		s.N = c.N
	}
}

// HandleTimer implements sm.Service.
func (s *Svc) HandleTimer(ctx sm.Context, t sm.TimerID) {
	if t != TimerGossip {
		return
	}
	s.Gossips++
	for _, p := range sm.SortedNodes(s.Peers) {
		ctx.Send(p, Counter{N: s.N})
	}
	ctx.SetTimer(TimerGossip, sm.Second)
}

// HandleApp implements sm.Service.
func (s *Svc) HandleApp(ctx sm.Context, call sm.AppCall) {
	if call.CallName() != "Bump" {
		return
	}
	s.N++
	for _, p := range sm.SortedNodes(s.Peers) {
		ctx.Send(p, Counter{N: s.N})
	}
}

// HandleTransportError implements sm.Service.
func (s *Svc) HandleTransportError(ctx sm.Context, peer sm.NodeID) {
	s.Errors++
	delete(s.Peers, peer)
}

// Neighbors implements sm.Service.
func (s *Svc) Neighbors() []sm.NodeID { return sm.SortedNodes(s.Peers) }

// Clone implements sm.Service.
func (s *Svc) Clone() sm.Service { return s.CloneInto(nil) }

// CloneInto implements sm.Service: dst's struct and peer set are reused. A
// nil *Svc is accepted as dst, so a wrapper service can pass the *Svc it
// holds, or its zero value's.
func (s *Svc) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Svc)
	if !ok || out == nil {
		out = new(Svc)
	}
	peers := out.Peers
	*out = *s
	out.Peers = sm.CopyNodeSet(peers, s.Peers)
	return out
}

// EncodeState implements sm.Service.
func (s *Svc) EncodeState(e *sm.Encoder) {
	e.NodeID(s.Self)
	e.Int(s.N)
	e.NodeSet(s.Peers)
	e.Int(s.Errors)
	e.Int(s.Inits)
	e.Int(s.Gossips)
}

// DecodeState implements sm.Service.
func (s *Svc) DecodeState(d *sm.Decoder) error {
	s.Self = d.NodeID()
	s.N = d.Int()
	s.Peers = d.NodeSet()
	s.Errors = d.Int()
	s.Inits = d.Int()
	s.Gossips = d.Int()
	return d.Err()
}

// ModelAppCalls implements sm.ModelActions.
func (s *Svc) ModelAppCalls() []sm.AppCall { return []sm.AppCall{Bump{}} }

// CounterBelow returns a property violated when any node's counter
// reaches limit.
func CounterBelow(limit int) props.Property {
	return props.Property{
		Name: "CounterBelowLimit",
		Check: func(v *props.View) bool {
			for _, nv := range v.Nodes() {
				if svc, ok := nv.Svc.(*Svc); ok && svc.N >= limit {
					return false
				}
			}
			return true
		},
	}
}
