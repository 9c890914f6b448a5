package simnet

import (
	"testing"
	"time"

	"crystalball/internal/sim"
	"crystalball/internal/sm"
)

// recorder implements Handler, recording deliveries and errors.
type recorder struct {
	delivered []delivery
	errors    []sm.NodeID
	ctlErrors []sm.NodeID
}

type delivery struct {
	from    sm.NodeID
	payload any
}

func (r *recorder) HandleDeliver(from sm.NodeID, payload any) {
	r.delivered = append(r.delivered, delivery{from, payload})
}
func (r *recorder) HandleConnError(peer sm.NodeID)    { r.errors = append(r.errors, peer) }
func (r *recorder) HandleControlError(peer sm.NodeID) { r.ctlErrors = append(r.ctlErrors, peer) }

func newNet(t *testing.T) (*sim.Simulator, *Network, map[sm.NodeID]*recorder) {
	t.Helper()
	s := sim.New(1)
	n := New(s, UniformPath{Latency: 10 * time.Millisecond, BwBps: 1e9})
	recs := make(map[sm.NodeID]*recorder)
	for id := sm.NodeID(1); id <= 4; id++ {
		r := &recorder{}
		recs[id] = r
		n.Register(id, r)
	}
	return s, n, recs
}

// drain executes events until the simulator's queue is empty.
func drain(s *sim.Simulator) {
	for s.Step() {
	}
}

func TestBasicDelivery(t *testing.T) {
	s, n, recs := newNet(t)
	n.Send(1, 2, "hello", 100, KindService)
	drain(s)
	if len(recs[2].delivered) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(recs[2].delivered))
	}
	d := recs[2].delivered[0]
	if d.from != 1 || d.payload != "hello" {
		t.Fatalf("bad delivery: %+v", d)
	}
	if got := n.state(1).bytesOut[KindService]; got != 100 {
		t.Fatalf("BytesOut = %d", got)
	}
}

func TestFIFOPerConnection(t *testing.T) {
	s, n, recs := newNet(t)
	for i := 0; i < 50; i++ {
		n.Send(1, 2, i, 10, KindService)
	}
	drain(s)
	if len(recs[2].delivered) != 50 {
		t.Fatalf("deliveries = %d, want 50", len(recs[2].delivered))
	}
	for i, d := range recs[2].delivered {
		if d.payload != i {
			t.Fatalf("out of order at %d: got %v", i, d.payload)
		}
	}
}

func TestFIFOUnderLoss(t *testing.T) {
	// Even with heavy loss-induced retransmission delays, TCP-like
	// delivery stays FIFO and loses nothing.
	s := sim.New(7)
	n := New(s, UniformPath{Latency: 5 * time.Millisecond, Loss: 0.3, BwBps: 1e9})
	r := &recorder{}
	n.Register(1, &recorder{})
	n.Register(2, r)
	for i := 0; i < 100; i++ {
		n.Send(1, 2, i, 10, KindService)
	}
	drain(s)
	if len(r.delivered) != 100 {
		t.Fatalf("deliveries = %d, want 100 (TCP must not drop)", len(r.delivered))
	}
	for i, d := range r.delivered {
		if d.payload != i {
			t.Fatalf("out of order at %d: got %v", i, d.payload)
		}
	}
}

func TestSendToDeadNodeErrors(t *testing.T) {
	s, n, recs := newNet(t)
	n.Kill(2)
	n.Send(1, 2, "x", 10, KindService)
	drain(s)
	if len(recs[2].delivered) != 0 {
		t.Fatal("dead node received a message")
	}
	if len(recs[1].errors) != 1 || recs[1].errors[0] != 2 {
		t.Fatalf("sender errors = %v, want [2]", recs[1].errors)
	}
}

func TestSilentResetDiscoveredOnNextSend(t *testing.T) {
	// Paper Figures 2/3: after a silent reset of n13, n9 only discovers
	// the broken channel when it next attempts to communicate.
	s, n, recs := newNet(t)
	n.Send(1, 2, "pre", 10, KindService)
	drain(s)
	if !n.Connected(1, 2) {
		t.Fatal("connection should exist")
	}
	n.Reset(2, true) // silent: no RST
	drain(s)
	if len(recs[1].errors) != 0 {
		t.Fatal("silent reset must not notify the peer")
	}
	// Next send discovers the stale connection: error, no delivery.
	n.Send(1, 2, "post", 10, KindService)
	drain(s)
	if len(recs[1].errors) != 1 || recs[1].errors[0] != 2 {
		t.Fatalf("errors = %v, want [2]", recs[1].errors)
	}
	if len(recs[2].delivered) != 1 { // only "pre"
		t.Fatalf("deliveries = %d, want 1", len(recs[2].delivered))
	}
	// A further send reconnects and succeeds.
	n.Send(1, 2, "again", 10, KindService)
	drain(s)
	if len(recs[2].delivered) != 2 {
		t.Fatalf("reconnect failed: deliveries = %d, want 2", len(recs[2].delivered))
	}
}

// TestControlTrafficHasItsOwnConnections: checkpoint traffic never opens,
// closes or finds stale a service connection, and a failure it meets goes to
// HandleControlError alone. A reset still breaks both connections.
func TestControlTrafficHasItsOwnConnections(t *testing.T) {
	s, n, recs := newNet(t)
	n.Send(1, 2, "svc", 10, KindService)
	n.Send(1, 2, "ctl", 10, KindCheckpoint)
	drain(s)
	n.Reset(2, true)
	// The control send finds its own socket stale; the service's stays as
	// it was, for the service to find on its own next send.
	n.Send(1, 2, "ctl", 10, KindCheckpoint)
	drain(s)
	if len(recs[1].errors) != 0 || len(recs[1].ctlErrors) != 1 {
		t.Fatalf("after a control send: service errors %v, control errors %v; want none, [2]", recs[1].errors, recs[1].ctlErrors)
	}
	n.Send(1, 2, "svc", 10, KindService)
	drain(s)
	if len(recs[1].errors) != 1 || recs[1].errors[0] != 2 {
		t.Fatalf("service errors = %v, want [2]", recs[1].errors)
	}
	// A noisy reset sends an RST on each connection, to its own handler.
	n.Send(1, 2, "svc", 10, KindService)
	n.Send(1, 2, "ctl", 10, KindCheckpoint)
	drain(s)
	n.Reset(2, false)
	drain(s)
	if len(recs[1].errors) != 2 || len(recs[1].ctlErrors) != 2 {
		t.Fatalf("after a noisy reset: service errors %v, control errors %v; want two each", recs[1].errors, recs[1].ctlErrors)
	}
}

func TestNoisyResetSendsRST(t *testing.T) {
	s, n, recs := newNet(t)
	n.Send(1, 2, "pre", 10, KindService)
	drain(s)
	n.Reset(2, false) // RST toward node 1 (loss=0 in this model)
	drain(s)
	if len(recs[1].errors) != 1 || recs[1].errors[0] != 2 {
		t.Fatalf("errors = %v, want RST from 2", recs[1].errors)
	}
}

func TestResetDropsInFlight(t *testing.T) {
	s, n, recs := newNet(t)
	n.Send(1, 2, "inflight", 10, KindService)
	// Reset node 2 before the 10 ms delivery occurs: buffered TCP data
	// must be lost.
	s.RunFor(time.Millisecond)
	n.Reset(2, true)
	drain(s)
	if len(recs[2].delivered) != 0 {
		t.Fatal("message survived a connection-destroying reset")
	}
}

func TestPartition(t *testing.T) {
	s, n, recs := newNet(t)
	n.Partition(1, 2, true)
	n.Send(1, 2, "x", 10, KindService)
	drain(s)
	if len(recs[2].delivered) != 0 {
		t.Fatal("partitioned pair delivered")
	}
	if len(recs[1].errors) != 1 {
		t.Fatalf("sender should see ConnError, got %v", recs[1].errors)
	}
	n.Partition(1, 2, false)
	n.Send(1, 2, "y", 10, KindService)
	drain(s)
	if len(recs[2].delivered) != 1 {
		t.Fatal("healed partition did not deliver")
	}
}

func TestPartitionNode(t *testing.T) {
	s, n, recs := newNet(t)
	n.PartitionNode(3, true)
	n.Send(1, 3, "x", 10, KindService)
	n.Send(2, 3, "y", 10, KindService)
	n.Send(1, 2, "z", 10, KindService)
	drain(s)
	if len(recs[3].delivered) != 0 {
		t.Fatal("partitioned node received")
	}
	if len(recs[2].delivered) != 1 {
		t.Fatal("unrelated pair affected by PartitionNode")
	}
	n.PartitionNode(3, false)
	n.Send(1, 3, "again", 10, KindService)
	drain(s)
	if len(recs[3].delivered) != 1 {
		t.Fatal("healed node did not receive")
	}
}

func TestBandwidthPacing(t *testing.T) {
	// 1 Mbps bottleneck: 10 messages of 12,500 bytes = 100,000 bits each
	// serialize to 0.1 s apiece, so the last arrives no earlier than ~1 s.
	s := sim.New(1)
	n := New(s, UniformPath{Latency: time.Millisecond, BwBps: 1e6})
	r := &recorder{}
	n.Register(1, &recorder{})
	n.Register(2, r)
	for i := 0; i < 10; i++ {
		n.Send(1, 2, i, 12500, KindService)
	}
	drain(s)
	if len(r.delivered) != 10 {
		t.Fatalf("deliveries = %d", len(r.delivered))
	}
	if s.Now() < sim.Time(time.Second) {
		t.Fatalf("10 x 0.1s transmissions finished too fast: %v", s.Now())
	}
}

func TestBreakConnNotify(t *testing.T) {
	s, n, recs := newNet(t)
	n.Send(1, 2, "pre", 10, KindService)
	drain(s)
	n.BreakConn(1, 2, true) // steering-style RST: node 2 learns
	drain(s)
	if len(recs[2].errors) != 1 || recs[2].errors[0] != 1 {
		t.Fatalf("peer errors = %v, want [1]", recs[2].errors)
	}
	if n.Connected(1, 2) {
		t.Fatal("connection should be gone")
	}
}

func TestIncarnationBumpsOnReset(t *testing.T) {
	_, n, _ := newNet(t)
	before := n.state(2).incarnation
	n.Reset(2, true)
	if n.state(2).incarnation != before+1 {
		t.Fatal("incarnation did not bump")
	}
}

func TestDeadNodeDoesNotSend(t *testing.T) {
	s, n, recs := newNet(t)
	n.Kill(1)
	n.Send(1, 2, "x", 10, KindService)
	drain(s)
	if len(recs[2].delivered) != 0 {
		t.Fatal("dead node sent a message")
	}
}

func TestRestartAfterKill(t *testing.T) {
	s, n, recs := newNet(t)
	n.Kill(2)
	n.Restart(2)
	n.Send(1, 2, "x", 10, KindService)
	drain(s)
	if len(recs[2].delivered) != 1 {
		t.Fatal("restarted node did not receive")
	}
}

func TestTotalBytesAccounting(t *testing.T) {
	s, n, _ := newNet(t)
	n.Send(1, 2, "a", 100, KindService)
	n.Send(1, 3, "b", 50, KindCheckpoint)
	n.Send(2, 3, "c", 25, KindCheckpoint)
	drain(s)
	if got := n.TotalBytesOut(KindCheckpoint); got != 75 {
		t.Fatalf("checkpoint bytes = %d, want 75", got)
	}
	if got := n.TotalBytesOut(KindService); got != 100 {
		t.Fatalf("service bytes = %d, want 100", got)
	}
	if got := n.MessagesOut(1); got != 2 {
		t.Fatalf("messages out = %d, want 2", got)
	}
}
