package dist

import (
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/sm"
)

// The shard-merge round protocol. Every connection carries Msg values; the
// loopback transport passes them by value, the TCP transport frames the
// binary encoding below. All connections are shard↔coordinator (star
// topology): shards never talk to each other directly, so the coordinator
// sees — and counts — every forwarded batch, which is what makes the
// credit-counted quiescence check in termination.go exact.
//
// Wire form: one frame per message, [uint32 length][kind byte][body], with
// the body written by the same sm.Encoder that backs state hashing and
// snapshots — deterministic, so the codec fuzz test can require that
// encode∘decode∘encode is byte-identical.

// Msg is one protocol message.
type Msg interface{ kind() byte }

// Protocol message kinds (the wire tag byte).
const (
	kindHello      = byte('H')
	kindSetup      = byte('C')
	kindRoundStart = byte('S')
	kindBatch      = byte('B')
	kindIdle       = byte('I')
	kindRoundEnd   = byte('E')
	kindReport     = byte('R')
	kindShutdown   = byte('Q')
	kindFault      = byte('X')
	kindPing       = byte('P')
	kindAbort      = byte('A')
	kindAbortAck   = byte('K')
)

// maxShards bounds the shard counts a decoded message may claim; anything
// above it is a corrupt or hostile frame, not a plausible deployment.
const maxShards = 1 << 16

// maxNodes bounds a Setup's node count the same way: a worker builds n node
// ids and paxos n·(n−1) peer ids from it. It is above every count the repo
// runs (≤ 25) and the paper's largest deployment (100).
const maxNodes = 1024

// Hello is the first message an mcheck -connect worker sends after dialing
// the coordinator: which shard slot it wants and how many shards it expects.
type Hello struct {
	Shard  int
	Shards int
}

func (Hello) kind() byte { return kindHello }

// Setup tells an mcheck -connect worker which scenario to build and with
// what seed and fault model — the coordinator's resolved values, so every
// shard constructs a bit-identical search configuration from its own
// scenario registry. In-process runs construct mc.Config directly and never
// send Setup.
type Setup struct {
	Scenario   string
	Nodes      int
	Variant    string
	Fixed      bool
	Seed       int64
	Resets     bool
	ConnBreaks bool
}

func (Setup) kind() byte { return kindSetup }

// RoundStart fans one round out to a shard with its share of the planned
// budget (see SplitBudget). Slot and Slots place the shard in *this
// round's* partition: after a failure the coordinator repartitions the
// fingerprint space over the survivors, so a shard's slot can differ from
// its connection identity and can change between retries. A shard owns
// mc.ShardRange(Slot, Slots) for the duration of the round.
type RoundStart struct {
	Round        int
	Slot         int
	Slots        int
	Budget       mc.Budget
	RecordStates bool
}

func (RoundStart) kind() byte { return kindRoundStart }

// Ping is the control-plane heartbeat. The TCP transport emits one per
// heartbeat interval from a dedicated writer so a connection carrying no
// round traffic still proves its peer alive; the reader consumes Pings at
// the transport layer (they never reach the protocol loops). The loopback
// transport never needs them. Ping is still a first-class codec message so
// the fuzzer covers it and a corrupted Ping fails loudly.
type Ping struct{}

func (Ping) kind() byte { return kindPing }

// RoundAbort tells a shard to abandon the in-flight round (a peer shard
// died); the shard drops all round state and replies with AbortAck. Because
// connections are FIFO and the coordinator stops relaying the moment it
// starts an abort, the AbortAck doubles as a barrier: once it arrives,
// no stale traffic from the aborted round can follow it.
type RoundAbort struct {
	Round int
}

func (RoundAbort) kind() byte { return kindAbort }

// AbortAck acknowledges a RoundAbort; Shard is the worker's connection
// identity (not its round slot — the aborted round's slots are dead).
type AbortAck struct {
	Shard int
	Round int
}

func (AbortAck) kind() byte { return kindAbortAck }

// DescribeEvent captures ev as it travels in a forwarded or reported path:
// its descriptor (sm.DescOf), which the receiver re-resolves against the
// enabled set of the state the event executed in. A delivery's Arg carries
// the fingerprint of the message payload the sender consumed — not part of
// the delivery's identity (the FIFO head is), but checked at every replayed
// step so diverged configurations fail at the first wrong payload. enc is
// scratch for the fingerprint.
func DescribeEvent(ev sm.Event, enc *sm.Encoder) sm.EventKey { return sm.DescOf(ev, enc) }

// ForwardState is one successor handed to its owner shard. In process it
// travels as the engine's own mc.Forward — the state itself plus a reference
// into the sender's search tree (fwd, with the wire prefix of that chain's
// root when the sender itself received it over a wire); on the wire it
// travels as the descriptor path from the root, which the receiver replays.
// Hash and Depth describe the state either way, so the receiver deduplicates
// against its visited set before paying for a replay.
type ForwardState struct {
	Hash   uint64
	Depth  int32
	Path   []sm.EventKey // wire form (nil in-process)
	fwd    mc.Forward    // in-process form (zero on the wire)
	prefix []sm.EventKey // wire path of fwd.Parent's chain root (in-process form)
}

// Batch carries forwarded states from slot From to owner slot To (round
// slots, not connection identities); the coordinator relays it to the
// connection holding slot To and counts the relay as an outstanding credit
// against that slot.
type Batch struct {
	From   int
	To     int
	States []ForwardState
}

func (Batch) kind() byte { return kindBatch }

// Idle is a shard's report that it has drained its frontier, flushed its
// outgoing batches, and has processed Received batches so far this round.
// Shard is the sender's round slot. The coordinator compares Received
// against its relay count to that slot: equality means no credit is
// outstanding (termination.go).
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
// aborts the round with it.
type Fault struct {
	Shard int
	Err   string
}

func (Fault) kind() byte { return kindFault }

// Conn is one side of a shard↔coordinator connection. Send must not block
// indefinitely on the peer's application logic (the loopback queues are
// unbounded; the TCP transport pumps every connection with a dedicated
// reader), which is what keeps batch exchange deadlock-free without
// windowing. TryRecv lets a shard greedily fold all queued batches into one
// drain. After Close, Recv drains any queued messages and then fails.
type Conn interface {
	Send(Msg) error
	Recv() (Msg, error)
	TryRecv() (Msg, bool, error)
	Close() error
}

// encodeMsg appends m's wire form (kind byte + body) to e.
func encodeMsg(e *sm.Encoder, m Msg) error {
	e.Byte(m.kind())
	switch v := m.(type) {
	case Hello:
		e.Int(v.Shard)
		e.Int(v.Shards)
	case Setup:
		e.String(v.Scenario)
		e.Int(v.Nodes)
		e.String(v.Variant)
		e.Bool(v.Fixed)
		e.Int64(v.Seed)
		e.Bool(v.Resets)
		e.Bool(v.ConnBreaks)
	case RoundStart:
		e.Int(v.Round)
		e.Int(v.Slot)
		e.Int(v.Slots)
		encodeBudget(e, v.Budget)
		e.Bool(v.RecordStates)
	case Batch:
		e.Int(v.From)
		e.Int(v.To)
		e.Uint32(uint32(len(v.States)))
		for i := range v.States {
			if err := encodeForwardState(e, &v.States[i]); err != nil {
				return err
			}
		}
	case Idle:
		e.Int(v.Shard)
		e.Int64(v.Received)
	case RoundEnd:
	case ShardReport:
		e.Int(v.Shard)
		e.Int64(v.States)
		e.Int64(v.Expansions)
		e.Int64(v.Transitions)
		e.Int64(v.Unbuilt)
		e.Int64(v.HandlerRuns)
		e.Uint32(uint32(v.MaxDepth))
		e.String(v.Stop)
		e.Int64(v.PeakBytes)
		e.Uint32(uint32(len(v.Violations)))
		for i := range v.Violations {
			encodeViolation(e, &v.Violations[i])
		}
		e.Int64(v.Stats.StatesForwarded)
		e.Int64(v.Stats.StatesReceived)
		e.Int64(v.Stats.RemoteDeduped)
		e.Int64(v.Stats.BatchFlushes)
		encodeHashes(e, v.Claimed)
		encodeHashes(e, v.Locals)
	case Shutdown:
	case Ping:
	case RoundAbort:
		e.Int(v.Round)
	case AbortAck:
		e.Int(v.Shard)
		e.Int(v.Round)
	case Fault:
		e.Int(v.Shard)
		e.String(v.Err)
	default:
		return errorf("encode: unknown message %T", m)
	}
	return nil
}

// decodeMsg reads one message written by encodeMsg. Control-plane fields
// are validated here, not at the protocol loops: a frame carrying an
// impossible shard slot, a negative counter or an out-of-range partition is
// rejected as corrupt the moment it is decoded, so a flipped bit cannot
// masquerade as a legal message and silently skew a round.
func decodeMsg(d *sm.Decoder) (Msg, error) {
	kind := d.Byte()
	var m Msg
	switch kind {
	case kindHello:
		h := Hello{Shard: d.Int(), Shards: d.Int()}
		if d.Err() == nil && (h.Shards <= 0 || h.Shards > maxShards || h.Shard < 0 || h.Shard >= h.Shards) {
			return nil, errorf("decode: hello claims shard %d of %d", h.Shard, h.Shards)
		}
		m = h
	case kindSetup:
		su := Setup{
			Scenario:   d.String(),
			Nodes:      d.Int(),
			Variant:    d.String(),
			Fixed:      d.Bool(),
			Seed:       d.Int64(),
			Resets:     d.Bool(),
			ConnBreaks: d.Bool(),
		}
		if d.Err() == nil && (su.Nodes < 0 || su.Nodes > maxNodes) {
			return nil, errorf("decode: setup with node count %d outside 0..%d", su.Nodes, maxNodes)
		}
		m = su
	case kindRoundStart:
		rs := RoundStart{Round: d.Int(), Slot: d.Int(), Slots: d.Int(), Budget: decodeBudget(d), RecordStates: d.Bool()}
		if d.Err() == nil {
			if rs.Round <= 0 {
				return nil, errorf("decode: round start for round %d", rs.Round)
			}
			if rs.Slots <= 0 || rs.Slots > maxShards || rs.Slot < 0 || rs.Slot >= rs.Slots {
				return nil, errorf("decode: round start places shard at slot %d of %d", rs.Slot, rs.Slots)
			}
			if err := validBudget(rs.Budget); err != nil {
				return nil, err
			}
		}
		m = rs
	case kindBatch:
		b := Batch{From: d.Int(), To: d.Int()}
		if d.Err() == nil && (b.From < 0 || b.From >= maxShards || b.To < 0 || b.To >= maxShards) {
			return nil, errorf("decode: batch between impossible slots %d -> %d", b.From, b.To)
		}
		n := int(d.Uint32())
		if d.Err() != nil || n < 0 || n > d.Remaining() {
			return nil, errorf("decode: bad batch length %d", n)
		}
		b.States = make([]ForwardState, n)
		for i := range b.States {
			decodeForwardState(d, &b.States[i])
			// Forwarded states always sit at depth >= 1 (roots are
			// seeded locally, never forwarded), so a wire form without
			// a path is corrupt.
			if b.States[i].Path == nil && d.Err() == nil {
				return nil, errorf("decode: forwarded state without path")
			}
		}
		m = b
	case kindIdle:
		id := Idle{Shard: d.Int(), Received: d.Int64()}
		if d.Err() == nil && (id.Shard < 0 || id.Shard >= maxShards || id.Received < 0) {
			return nil, errorf("decode: idle from slot %d with %d received", id.Shard, id.Received)
		}
		m = id
	case kindRoundEnd:
		m = RoundEnd{}
	case kindReport:
		r := ShardReport{
			Shard:       d.Int(),
			States:      d.Int64(),
			Expansions:  d.Int64(),
			Transitions: d.Int64(),
			Unbuilt:     d.Int64(),
			HandlerRuns: d.Int64(),
			MaxDepth:    int32(d.Uint32()),
			Stop:        d.String(),
			PeakBytes:   d.Int64(),
		}
		if d.Err() == nil && (r.Shard < 0 || r.Shard >= maxShards || r.States < 0 || r.Expansions < 0 || r.Transitions < 0 || r.Unbuilt < 0 || r.HandlerRuns < 0 || r.PeakBytes < 0) {
			return nil, errorf("decode: report with impossible counters (shard=%d)", r.Shard)
		}
		if d.Err() == nil && !mc.IsStopReason(r.Stop) {
			return nil, errorf("decode: report with unknown stop reason %q", r.Stop)
		}
		n := int(d.Uint32())
		if d.Err() != nil || n < 0 || n > d.Remaining() {
			return nil, errorf("decode: bad violation count %d", n)
		}
		r.Violations = make([]Violation, n)
		for i := range r.Violations {
			decodeViolation(d, &r.Violations[i])
		}
		r.Stats = Stats{
			StatesForwarded: d.Int64(),
			StatesReceived:  d.Int64(),
			RemoteDeduped:   d.Int64(),
			BatchFlushes:    d.Int64(),
		}
		r.Claimed = decodeHashes(d)
		r.Locals = decodeHashes(d)
		m = r
	case kindShutdown:
		m = Shutdown{}
	case kindPing:
		m = Ping{}
	case kindAbort:
		ra := RoundAbort{Round: d.Int()}
		if d.Err() == nil && ra.Round <= 0 {
			return nil, errorf("decode: abort for round %d", ra.Round)
		}
		m = ra
	case kindAbortAck:
		ak := AbortAck{Shard: d.Int(), Round: d.Int()}
		if d.Err() == nil && (ak.Shard < 0 || ak.Shard >= maxShards || ak.Round <= 0) {
			return nil, errorf("decode: abort ack from shard %d for round %d", ak.Shard, ak.Round)
		}
		m = ak
	case kindFault:
		m = Fault{Shard: d.Int(), Err: d.String()}
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, errorf("decode: unknown message kind %q", kind)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeBudget(e *sm.Encoder, b mc.Budget) {
	e.Int(b.States)
	e.Int(b.Depth)
	e.Int64(int64(b.Wall))
	e.Int(b.Violations)
	e.Int(b.Workers)
}

func decodeBudget(d *sm.Decoder) mc.Budget {
	return mc.Budget{
		States:     d.Int(),
		Depth:      d.Int(),
		Wall:       time.Duration(d.Int64()),
		Violations: d.Int(),
		Workers:    d.Int(),
	}
}

// validBudget rejects decoded budgets no planner can produce (every budget
// dimension is a non-negative quota; 0 means unlimited).
func validBudget(b mc.Budget) error {
	if b.States < 0 || b.Depth < 0 || b.Wall < 0 || b.Violations < 0 || b.Workers < 0 {
		return errorf("decode: budget with negative quota %+v", b)
	}
	return nil
}

func encodeStrings(e *sm.Encoder, ss []string) {
	e.Uint32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

func decodeStrings(d *sm.Decoder) []string {
	n := int(d.Uint32())
	if d.Err() != nil || n <= 0 || n > d.Remaining() {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.String()
	}
	return ss
}

func encodeHashes(e *sm.Encoder, hs []uint64) {
	e.Uint32(uint32(len(hs)))
	for _, h := range hs {
		e.Uint64(h)
	}
}

func decodeHashes(d *sm.Decoder) []uint64 {
	n := int(d.Uint32())
	if d.Err() != nil || n <= 0 || n > d.Remaining()/8 {
		return nil
	}
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = d.Uint64()
	}
	return hs
}

func encodeDescPath(e *sm.Encoder, path []sm.EventKey) {
	e.Uint32(uint32(len(path)))
	for i := range path {
		e.EventKey(path[i])
	}
}

func decodeDescPath(d *sm.Decoder) []sm.EventKey {
	n := int(d.Uint32())
	if d.Err() != nil || n <= 0 || n > d.Remaining() {
		return nil
	}
	path := make([]sm.EventKey, n)
	for i := range path {
		path[i] = d.EventKey()
	}
	return path
}

// encodeForwardState writes fs, materializing the descriptor path from the
// sender's search tree if it has not crossed a wire yet.
func encodeForwardState(e *sm.Encoder, fs *ForwardState) error {
	path := fs.Path
	if path == nil {
		if !fs.fwd.Parent.Valid() {
			return errorf("encode: forwarded state has neither path nor node")
		}
		path = descPath(fs.prefix, fs.fwd.Parent, fs.fwd.Desc)
	}
	e.Uint64(fs.Hash)
	e.Uint32(uint32(fs.Depth))
	encodeDescPath(e, path)
	return nil
}

func decodeForwardState(d *sm.Decoder, fs *ForwardState) {
	fs.Hash = d.Uint64()
	fs.Depth = int32(d.Uint32())
	fs.Path = decodeDescPath(d)
}

func encodeViolation(e *sm.Encoder, v *Violation) {
	encodeStrings(e, v.Props)
	e.Uint32(uint32(v.Depth))
	e.Uint64(v.StateHash)
	encodeDescPath(e, v.Path)
}

func decodeViolation(d *sm.Decoder, v *Violation) {
	v.Props = decodeStrings(d)
	v.Depth = int32(d.Uint32())
	v.StateHash = d.Uint64()
	v.Path = decodeDescPath(d)
}
