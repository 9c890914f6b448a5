package dist

import (
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
	}
	return []Msg{
		RoundStart{
			Slots: 4,
			Budget: mc.Budget{
				States: 1000, Depth: 12, Wall: 5 * time.Second,
				Violations: 8, Workers: 2,
			},
			RecordStates: true,
		},
		Batch{From: 0, To: 1, States: []ForwardState{
			{Hash: 0x1234, Depth: 3, fwd: mc.Forward{State: mc.NewGState(), Depth: 3}},
			{Hash: 0x5678, Depth: 6},
		}},
		Idle{Shard: 2, Received: 17},
		RoundEnd{},
		ShardReport{
			Shard: 1, States: 400, Expansions: 390, Transitions: 2200,
			Unbuilt: 1500, HandlerRuns: 35, MaxDepth: 12, Stop: "states", PeakBytes: 1 << 20,
			Violations: []Violation{
				{Props: []string{"ring", "safety"}, Depth: 4, StateHash: 0xabc, Path: path},
			},
			Stats:   Stats{StatesForwarded: 9, StatesReceived: 8, RemoteDeduped: 3, BatchFlushes: 2},
			Claimed: []uint64{1, 2, 3},
			Locals:  []uint64{7, 9},
		},
		Shutdown{},
		Fault{Err: "boom"},
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
