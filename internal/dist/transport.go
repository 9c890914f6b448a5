package dist

import (
	"crystalball/internal/mc"
	"crystalball/internal/sm"
)

// The shard-merge round protocol. Every connection carries Msg values,
// passed by value through an in-process pipe (loopback.go). All connections
// are shard↔coordinator (star topology): shards never talk to each other
// directly, so the coordinator sees — and counts — every forwarded batch,
// which is what makes the credit-counted quiescence check in termination.go
// exact.

// Msg is one protocol message.
type Msg interface{ kind() byte }

// Protocol message kinds (the tag kind returns).
const (
	kindRoundStart = byte('S')
	kindBatch      = byte('B')
	kindIdle       = byte('I')
	kindRoundEnd   = byte('E')
	kindReport     = byte('R')
	kindShutdown   = byte('Q')
	kindFault      = byte('X')
)

// RoundStart fans one round out to a shard with its share of the planned
// budget (see SplitBudget). Slots is how many shards the round seats
// (usableSlots: a small state bound seats fewer than exist); shard i owns
// mc.ShardRange(i, Slots) for the duration of the round.
type RoundStart struct {
	Round        int
	Slots        int
	Budget       mc.Budget
	RecordStates bool
}

func (RoundStart) kind() byte { return kindRoundStart }

// DescribeEvent captures ev as it travels in a reported violation path:
// its descriptor (sm.DescOf), which the receiver re-resolves against the
// enabled set of the state the event executed in. A delivery's Arg carries
// the fingerprint of the message payload the sender consumed — not part of
// the delivery's identity (the FIFO head is), but checked at every replayed
// step so diverged configurations fail at the first wrong payload. enc is
// scratch for the fingerprint.
func DescribeEvent(ev sm.Event, enc *sm.Encoder) sm.EventKey { return sm.DescOf(ev, enc) }

// ForwardState is one successor handed to its owner shard: the engine's own
// mc.Forward — the state itself plus a reference into the sender's search
// tree, which the receiver's tree links its new chain root to. Hash and
// Depth describe the state, so the receiver deduplicates against its
// visited set before injecting it.
type ForwardState struct {
	Hash  uint64
	Depth int32
	fwd   mc.Forward
}

// Batch carries forwarded states from shard From to owner shard To; the
// coordinator relays it to shard To and counts the relay as an outstanding
// credit against that shard.
type Batch struct {
	From   int
	To     int
	States []ForwardState
}

func (Batch) kind() byte { return kindBatch }

// Idle is a shard's report that it has drained its frontier, flushed its
// outgoing batches, and has processed Received batches so far this round.
// Shard is the sender. The coordinator compares Received against its relay
// count to that shard: equality means no credit is outstanding
// (termination.go).
type Idle struct {
	Shard    int
	Received int64
}

func (Idle) kind() byte { return kindIdle }

// RoundEnd asks a shard for its report; the coordinator sends it only after
// quiescence, so no batch can still be in flight.
type RoundEnd struct{}

func (RoundEnd) kind() byte { return kindRoundEnd }

// Violation is one deduplicated property violation found by a shard. The
// path travels as descriptors; the coordinator replays it into events.
type Violation struct {
	Props     []string
	Depth     int32
	StateHash uint64
	Path      []sm.EventKey
}

// ShardReport is a shard's contribution to the round's merged report.
// States (the claimed-set size), MaxDepth, Violations, Claimed and Locals
// are deterministic for a given seed and shard count; Expansions,
// Transitions, Unbuilt, HandlerRuns, PeakBytes and Stats are scheduling
// telemetry (re-expansion counts vary with batch arrival order). Stop is the
// shard engine's mc.Result.StopReason.
type ShardReport struct {
	Shard       int
	States      int64 // states claimed into the visited set
	Expansions  int64 // states admitted for expansion (exact: never above the budget share)
	Transitions int64
	Unbuilt     int64 // the shard engine's mc.Result.Unbuilt
	HandlerRuns int64 // the shard engine's mc.Result.HandlerRuns
	MaxDepth    int32
	Stop        string
	PeakBytes   int64 // the shard engine's mc.Result.PeakMemoryBytes
	Violations  []Violation
	Stats       Stats
	Claimed     []uint64 // sorted fingerprint dump (RecordStates rounds only)
	Locals      []uint64 // sorted distinct local-state fingerprints
}

func (ShardReport) kind() byte { return kindReport }

// Shutdown ends the session; the shard exits cleanly.
type Shutdown struct{}

func (Shutdown) kind() byte { return kindShutdown }

// Fault is a shard-side fatal error surfaced to the coordinator, which
// ends the round with it (cause "fault", Err as the detail).
type Fault struct {
	Shard int
	Err   string
}

func (Fault) kind() byte { return kindFault }

// Conn is one side of a shard↔coordinator connection. Send must not block
// on the peer's application logic (the pipe's queues are unbounded), which
// is what keeps batch exchange deadlock-free without windowing. TryRecv lets
// a shard greedily fold all queued batches into one drain. After Close, Recv
// drains any queued messages and then fails.
type Conn interface {
	Send(Msg) error
	Recv() (Msg, error)
	TryRecv() (Msg, bool, error)
	Close() error
}
