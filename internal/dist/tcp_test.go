package dist

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"crystalball/internal/mc"
)

// tcpRound runs one two-shard round over real TCP sockets on loopback and
// returns what the coordinator merged. Wire mode exercises the parts the
// in-process transport skips: codec framing, path materialization on
// forward, replay-with-hash-verification on ingest and on violation paths.
func tcpRound(t *testing.T, g *mc.GState, cfg mc.Config, b mc.Budget, record bool) (*Result, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()

	const shards = 2
	shardErrs := make(chan error, shards)
	for i := 0; i < shards; i++ {
		i := i
		go func() {
			conn, err := DialTCP(ln.Addr().String(), TCPOptions{})
			if err != nil {
				shardErrs <- err
				return
			}
			if err := conn.Send(Hello{Shard: i, Shards: shards}); err != nil {
				shardErrs <- err
				return
			}
			shardErrs <- RunShard(conn, ShardConfig{
				Index: i, Shards: shards, Search: cfg, Root: g,
			})
		}()
	}
	// Accept order is not dial order: each worker's Hello names its slot.
	conns := make([]Conn, shards)
	for i := 0; i < shards; i++ {
		nc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conn := WrapTCP(nc, TCPOptions{})
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		h, ok := m.(Hello)
		if !ok || h.Shard < 0 || h.Shard >= shards || conns[h.Shard] != nil {
			t.Fatalf("bad hello %#v", m)
		}
		conns[h.Shard] = conn
	}

	coord := NewCoordinator(conns, CoordinatorConfig{Search: mc.NewSearch(cfg), Root: g})
	res, rerr := coord.RunRound(b, record)
	coord.Shutdown()
	for i := 0; i < shards; i++ {
		if serr := <-shardErrs; serr != nil && serr != ErrClosed && rerr == nil {
			t.Errorf("shard exited with: %v", serr)
		}
	}
	return res, rerr
}

// TestTCPSmoke checks a two-shard search over TCP against the serial
// engine's claimed-state set, with more than one batch per shard on the
// wire.
func TestTCPSmoke(t *testing.T) {
	g, cfg := chordStart(t)
	cfg.RecordClaimedStates = true
	serialCfg := cfg
	serialCfg.Budget = mc.Budget{Depth: 4, Workers: 1}
	serial := mc.NewSearch(serialCfg).Run(g)

	res, err := tcpRound(t, g, cfg, mc.Budget{Depth: 4, Workers: 1}, true)
	if err != nil {
		t.Fatalf("tcp round: %v", err)
	}
	if !reflect.DeepEqual(res.Checker.ClaimedStates, serial.ClaimedStates) {
		t.Errorf("tcp claimed set diverges from serial (%d vs %d states)",
			len(res.Checker.ClaimedStates), len(serial.ClaimedStates))
	}
	if res.Checker.StatesExplored != serial.StatesExplored {
		t.Errorf("tcp StatesExplored=%d, serial %d", res.Checker.StatesExplored, serial.StatesExplored)
	}
	if res.Checker.DistinctLocalStates != serial.DistinctLocalStates {
		t.Errorf("tcp DistinctLocalStates=%d, serial %d",
			res.Checker.DistinctLocalStates, serial.DistinctLocalStates)
	}
	if res.Stats.StatesReceived == 0 {
		t.Errorf("no states crossed the wire: %+v", res.Stats)
	}
	// Batches flush at every depth bucket as well as at DefaultBatchSize,
	// so four levels are enough for several batches per shard.
	if res.Stats.BatchFlushes <= 2 {
		t.Errorf("%d batch flushes over 2 shards: the exchange never went past one batch each", res.Stats.BatchFlushes)
	}
}

// TestTCPConnRoundTrip pins that the framed transport delivers every
// message type unchanged, in order, over a real socket pair.
func TestTCPConnRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- WrapTCP(nc, TCPOptions{})
	}()
	a, err := DialTCP(ln.Addr().String(), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted

	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := a.Send(m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
	}
	for _, want := range msgs {
		if _, isPing := want.(Ping); isPing {
			// Pings are consumed by the transport reader (heartbeats never
			// reach the protocol loop), so there is nothing to receive.
			continue
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		// In-process node pointers cannot cross the wire; everything
		// else must survive byte-exactly.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tcp corrupted %T:\n got %#v\nwant %#v", want, got, want)
		}
	}
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Fatalf("recv after peer close succeeded")
	}
	b.Close()
}

// TestTCPMutePeerTimesOut is the failure-detection regression: a peer that
// accepts the connection and then goes mute (transport open, zero traffic —
// the pre-heartbeat worst case) must surface as a connection error within
// the peer timeout, not hang a Recv forever. This covers the handshake too:
// Hello/Setup reads run through the same wrapper.
func TestTCPMutePeerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// Mute: hold the raw socket open, never write, never heartbeat.
		defer nc.Close()
		buf := make([]byte, 1024)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}()

	const timeout = 300 * time.Millisecond
	conn, err := DialTCP(ln.Addr().String(), TCPOptions{PeerTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(Hello{Shard: 0, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = conn.Recv()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("recv from a mute peer succeeded")
	}
	if !strings.Contains(err.Error(), "declared dead") {
		t.Errorf("timeout not labeled as peer death: %v", err)
	}
	if elapsed > 20*timeout {
		t.Errorf("detection took %v with a %v peer timeout", elapsed, timeout)
	}
}
