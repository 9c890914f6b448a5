package dist

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/sm"
)

// sampleMsgs covers every protocol message type, with every field that can
// be non-zero populated.
func sampleMsgs() []Msg {
	path := []sm.EventKey{
		{Kind: 'M', From: 1, Node: 2, Name: "Join", Arg: 0xdeadbeef},
		{Kind: 'T', Node: 3, Name: "recovery"},
		{Kind: 'A', Node: 1, Name: "propose", Arg: 42},
		{Kind: 'R', Node: 2},
		{Kind: 'E', Node: 1, From: 3},
		{Kind: 'D', From: 2, Node: 1},
	}
	return []Msg{
		Hello{Shard: 1, Shards: 4},
		Setup{
			Scenario: "chord", Nodes: 5, Variant: "bug1", Fixed: true,
			Seed: -3, Resets: true, ConnBreaks: true,
		},
		RoundStart{
			Round: 3, Slot: 1, Slots: 4,
			Budget: mc.Budget{
				States: 1000, Depth: 12, Wall: 5 * time.Second,
				Violations: 8, Workers: 2,
			},
			RecordStates: true,
		},
		Batch{From: 0, To: 1, States: []ForwardState{
			{Hash: 0x1234, Depth: 3, Path: path[:3]},
			{Hash: 0x5678, Depth: 6, Path: path},
		}},
		Idle{Shard: 2, Received: 17},
		RoundEnd{},
		ShardReport{
			Shard: 1, States: 400, Expansions: 390, Transitions: 2200,
			Unbuilt: 1500, HandlerRuns: 35, MaxDepth: 12, Stop: "states", PeakBytes: 1 << 20,
			Violations: []Violation{
				{Props: []string{"ring", "safety"}, Depth: 4, StateHash: 0xabc, Path: path[:2]},
			},
			Stats:   Stats{StatesForwarded: 9, StatesReceived: 8, RemoteDeduped: 3, BatchFlushes: 2},
			Claimed: []uint64{1, 2, 3},
			Locals:  []uint64{7, 9},
		},
		Shutdown{},
		Fault{Shard: 3, Err: "boom"},
		Ping{},
		RoundAbort{Round: 2},
		AbortAck{Shard: 1, Round: 2},
	}
}

// badKind is a forwarded state whose path names an event of no kind.
var badKind = Batch{From: 0, To: 1, States: []ForwardState{
	{Hash: 0x10, Depth: 1, Path: []sm.EventKey{{Kind: 'X', From: 1, Node: 2, Name: "Join"}}},
}}

// TestDecodeRejectsInvalid pins that the decoder refuses structurally valid
// frames carrying out-of-range fields — loudly, not by truncating or
// clamping. (The fuzz harness found silent acceptance here once; these are
// the distilled regressions.)
func TestDecodeRejectsInvalid(t *testing.T) {
	bad := []Msg{
		Hello{Shard: -1, Shards: 4},
		Hello{Shard: 4, Shards: 4},
		Hello{Shard: 0, Shards: maxShards + 1},
		Setup{Scenario: "chord", Nodes: -1},
		Setup{Scenario: "chord", Nodes: maxNodes + 1},
		RoundStart{Round: 0, Slot: 0, Slots: 1},
		RoundStart{Round: 1, Slot: -1, Slots: 2},
		RoundStart{Round: 1, Slot: 2, Slots: 2},
		RoundStart{Round: 1, Slot: 0, Slots: 0},
		RoundStart{Round: 1, Slot: 0, Slots: 1, Budget: mc.Budget{States: -5}},
		Batch{From: -1, To: 0},
		Batch{From: 0, To: maxShards},
		Idle{Shard: -2, Received: 0},
		Idle{Shard: 0, Received: -1},
		ShardReport{Shard: -1, Stop: mc.FrontierEmpty},
		ShardReport{Shard: 0, States: -4, Stop: mc.FrontierEmpty},
		ShardReport{Shard: 0, PeakBytes: -1, Stop: mc.FrontierEmpty},
		ShardReport{Shard: 0, Unbuilt: -1, Stop: mc.FrontierEmpty},
		ShardReport{Shard: 0, HandlerRuns: -1, Stop: mc.FrontierEmpty},
		ShardReport{Shard: 0, Stop: "transitions"},
		RoundAbort{Round: -1},
		AbortAck{Shard: -1, Round: 1},
		AbortAck{Shard: 0, Round: 0},
		badKind,
	}
	for _, m := range bad {
		enc := sm.NewEncoder()
		if err := encodeMsg(enc, m); err != nil {
			// The encoder refusing is fine too, as long as somebody does.
			continue
		}
		if got, err := decodeMsg(sm.NewDecoder(enc.Bytes())); err == nil {
			t.Errorf("decode accepted invalid %#v as %#v", m, got)
		}
	}
}

// TestCodecRoundTrip pins that every message type survives
// encode → decode → encode byte-identically and value-identically.
func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		enc := sm.NewEncoder()
		if err := encodeMsg(enc, m); err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		first := append([]byte(nil), enc.Bytes()...)
		got, err := decodeMsg(sm.NewDecoder(first))
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T: decoded value diverges:\n got %#v\nwant %#v", m, got, m)
		}
		enc.Reset()
		if err := encodeMsg(enc, got); err != nil {
			t.Fatalf("%T: re-encode: %v", m, err)
		}
		if !bytes.Equal(enc.Bytes(), first) {
			t.Errorf("%T: re-encoded bytes differ", m)
		}
		if d := sm.NewDecoder(first); func() bool { _, err := decodeMsg(d); return err == nil && d.Remaining() != 0 }() {
			t.Errorf("%T: decode left %d trailing bytes", m, d.Remaining())
		}
	}
}

// TestLoopbackRoundTrip pins that the in-process transport delivers every
// message type unchanged, in order.
func TestLoopbackRoundTrip(t *testing.T) {
	a, b := Pipe()
	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := a.Send(m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
	}
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("loopback corrupted %T: got %#v", want, got)
		}
	}
	if _, ok, err := b.TryRecv(); ok || err != nil {
		t.Fatalf("queue should be empty: ok=%v err=%v", ok, err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("recv after close: %v, want ErrClosed", err)
	}
}

// FuzzCodec feeds arbitrary bytes to the decoder; whatever decodes must
// re-encode byte-identically (the canonical-form property the satellite
// pins) and never panic.
func FuzzCodec(f *testing.F) {
	for _, m := range sampleMsgs() {
		enc := sm.NewEncoder()
		if err := encodeMsg(enc, m); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), enc.Bytes()...))
	}
	f.Add([]byte{})
	f.Add([]byte{'B', 0, 0})
	// A report that is nothing but its memory field, at the top of the
	// range the decoder's sign check guards.
	enc := sm.NewEncoder()
	if err := encodeMsg(enc, ShardReport{PeakBytes: math.MaxInt64, Stop: mc.FrontierEmpty}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), enc.Bytes()...))
	// A report that stopped on a bound, and one naming no stop reason a
	// search has: refused.
	for _, stop := range []string{"wall", "transitions"} {
		enc.Reset()
		if err := encodeMsg(enc, ShardReport{Shard: 1, States: 3, Stop: stop}); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), enc.Bytes()...))
	}
	// A path whose one event has a kind byte outside MTAERD: refused.
	enc.Reset()
	if err := encodeMsg(enc, badKind); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), enc.Bytes()...))
	// A report whose two scheduling counts sit at the top of the range the
	// decoder's sign checks guard.
	enc.Reset()
	if err := encodeMsg(enc, ShardReport{Unbuilt: math.MaxInt64, HandlerRuns: math.MaxInt64, Stop: mc.FrontierEmpty}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), enc.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMsg(sm.NewDecoder(data))
		if err != nil {
			return
		}
		enc := sm.NewEncoder()
		if err := encodeMsg(enc, m); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		again, err := decodeMsg(sm.NewDecoder(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		enc2 := sm.NewEncoder()
		if err := encodeMsg(enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("%T: encode∘decode not idempotent", m)
		}
	})
}
