// Package sm defines the state-machine abstraction shared by the live
// runtime and the model checker.
//
// It is a direct transcription of the simple distributed-system model in
// Figure 4 of the CrystalBall paper: each node runs a state machine with a
// message handler and internal-action handlers (timers and application
// calls), and the global system state is (local states, in-flight messages).
// Services written against this package run unchanged both "live" (driven by
// internal/runtime on top of internal/simnet) and inside the model checker
// (internal/mc), which is exactly how MaceMC executed real Mace handler code.
package sm

import (
	"math/rand"
	"strconv"
)

// NodeID identifies a node. In the paper node identifiers are IP addresses
// and their numeric order matters (e.g. RandTree elects the smallest address
// as root); we keep that by making NodeID an ordered integer.
type NodeID int32

// NoNode is the zero NodeID used for "unset" pointers (parent, predecessor).
const NoNode NodeID = -1

// String renders the id as "n<k>".
func (n NodeID) String() string {
	var buf [12]byte
	return string(n.appendTo(buf[:0]))
}

// appendTo appends String's bytes to b.
func (n NodeID) appendTo(b []byte) []byte {
	if n == NoNode {
		return append(b, "n?"...)
	}
	return strconv.AppendInt(append(b, 'n'), int64(n), 10)
}

// TimerID names a timer within a service (e.g. "recovery", "stabilize").
type TimerID string

// Message is a network message exchanged between service state machines.
// Messages must be treated as immutable once sent: both the live runtime and
// the model checker may share a single message value across many states.
type Message interface {
	// MsgType returns the message type name used by event filters
	// ("Join", "UpdateSibling", ...).
	MsgType() string
	// Size returns the approximate wire size in bytes, used by the
	// simulated network for bandwidth pacing and by the snapshot manager
	// for bandwidth accounting.
	Size() int
	// EncodeMsg writes a stable binary form used for state hashing.
	EncodeMsg(e *Encoder)
}

// AppCall is an application-level request delivered to a service (paper:
// "application calls" in H_A), e.g. "join the overlay", "propose value 0".
type AppCall interface {
	// CallName returns the call's name for filters and traces.
	CallName() string
	// EncodeCall writes a stable binary form used for state hashing.
	EncodeCall(e *Encoder)
}

// Context is the interface through which a handler affects the world. The
// live runtime and the model checker provide different implementations with
// identical semantics, so handler code cannot tell whether it is running for
// real or speculatively.
type Context interface {
	// Self returns the node executing the handler.
	Self() NodeID
	// Send queues msg for delivery to node to over the TCP-like
	// transport. Sending to a peer whose connection has broken results
	// in a TransportError event instead of delivery.
	Send(to NodeID, msg Message)
	// SetTimer (re)schedules the named timer to fire after d.
	SetTimer(t TimerID, d Duration)
	// CancelTimer cancels the named timer if pending.
	CancelTimer(t TimerID)
	// TimerPending reports whether the named timer is scheduled.
	TimerPending(t TimerID) bool
	// Rand returns the service's deterministic random stream.
	Rand() *rand.Rand
}

// Duration re-exports time.Duration through sm so service packages need not
// import time just for timer intervals.
type Duration = int64

// Second is a duration in service code's own units.
const Second Duration = 1e9

// Service is a distributed-service state machine (one per node). All state
// a service keeps must be reachable from the Service value so that Clone,
// EncodeState and DecodeState capture it completely; the model checker,
// the checkpoint manager and the immediate safety check all rely on that.
type Service interface {
	// Init is called when the node (re)starts, including after a reset.
	// It must bring the service to its initial state and may schedule
	// timers or send messages.
	Init(ctx Context)
	// HandleMessage processes a network message from node from.
	HandleMessage(ctx Context, from NodeID, msg Message)
	// HandleTimer processes expiry of the named timer.
	HandleTimer(ctx Context, t TimerID)
	// HandleApp processes an application call.
	HandleApp(ctx Context, call AppCall)
	// HandleTransportError tells the service the TCP-like connection to
	// peer broke (RST received, or discovered broken on send).
	HandleTransportError(ctx Context, peer NodeID)

	// Neighbors returns the node's current snapshot neighborhood (paper
	// section 3.1): the peers whose checkpoints this node needs to check
	// its properties.
	Neighbors() []NodeID

	// Clone returns a deep copy sharing no mutable state. Every
	// implementation is exactly `return x.CloneInto(nil)`, so a service
	// has one copy body.
	Clone() Service
	// CloneInto writes a deep copy of the receiver into dst and returns it;
	// the model checker and the immediate safety check run every handler on
	// such a copy. dst is nil or a value the caller owns exclusively, and
	// never the receiver. When dst has the receiver's concrete type its
	// struct, slices and maps are reused; otherwise (nil included) the copy
	// is allocated. The result shares no mutable state with the receiver
	// and keeps nothing of dst's earlier contents: every map and slice is
	// cleared before it is refilled. A type that embeds a service declares
	// its own CloneInto, or the embedded one's is promoted and returns the
	// bare embedded service (crystalvet's cloneinto pass).
	CloneInto(dst Service) Service
	// EncodeState writes the entire service state in a stable binary
	// form; used for hashing and checkpoints.
	EncodeState(e *Encoder)
	// DecodeState restores state written by EncodeState.
	DecodeState(d *Decoder) error
}

// ModelActions is implemented by services to tell the model checker which
// internal actions (application calls) it should explore from a given local
// state, per H_A in the paper's system model. Timer firings are derived from
// the pending-timer set automatically, and node resets are generated by the
// checker itself when fault exploration is enabled.
type ModelActions interface {
	// ModelAppCalls returns application calls worth exploring from the
	// current local state (e.g. a not-joined RandTree node may Join).
	ModelAppCalls() []AppCall
}

// Factory creates a fresh (pre-Init) service instance for a node. The model
// checker uses it to materialize reset nodes, and the runtime uses it on
// node restarts.
type Factory func(self NodeID) Service

// StableStore is implemented by services that keep part of their state on
// disk. On a node reset, the runtime (and the model checker's reset
// transition) extracts the stable bytes from the dying instance and
// restores them into the fresh instance before Init runs. A service whose
// implementation forgets to persist something (the CrystalBall paper's
// injected Paxos bug 2: a promise "kept" only in memory) simply omits it
// from StableBytes, and the loss materialises exactly as it would in a
// deployment.
type StableStore interface {
	// StableBytes returns the on-disk state, or nil when nothing is
	// persisted.
	StableBytes() []byte
	// RestoreStable loads previously persisted state into a fresh
	// instance. It is called before Init, and never with nil.
	RestoreStable(data []byte)
}
