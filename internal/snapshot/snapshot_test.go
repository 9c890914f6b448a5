package snapshot

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/testsvc"
)

type fixture struct {
	sim   *sim.Simulator
	net   *simnet.Network
	nodes []*runtime.Node
	mgrs  []*Manager
}

func setup(t *testing.T, n int, interval time.Duration) *fixture {
	t.Helper()
	s := sim.New(21)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	ids := make([]sm.NodeID, n)
	for i := range ids {
		ids[i] = sm.NodeID(i + 1)
	}
	factory := testsvc.NewWithPeers(ids...)
	f := &fixture{sim: s, net: net}
	for _, id := range ids {
		node := runtime.NewNode(s, net, id, factory)
		f.nodes = append(f.nodes, node)
		f.mgrs = append(f.mgrs, NewManager(s, node, interval))
	}
	return f
}

func TestPeriodicCheckpoints(t *testing.T) {
	f := setup(t, 1, time.Second)
	f.sim.RunFor(5500 * time.Millisecond)
	if got := f.mgrs[0].Stats.CheckpointsTaken; got < 5 {
		t.Fatalf("checkpoints taken = %d, want >= 5", got)
	}
	if f.mgrs[0].OutgoingCN() < 5 {
		t.Fatalf("cn = %d, want >= 5", f.mgrs[0].OutgoingCN())
	}
}

func TestQuotaPrunesOldest(t *testing.T) {
	f := setup(t, 1, 100*time.Millisecond)
	f.sim.RunFor(5 * time.Second) // 50 periodic checkpoints
	m := f.mgrs[0]
	if m.Stats.CheckpointsTaken <= quota {
		t.Fatalf("only %d checkpoints taken, want more than the quota %d", m.Stats.CheckpointsTaken, quota)
	}
	if got := len(m.store); got != quota {
		t.Fatalf("stored = %d, quota %d", got, quota)
	}
	if oldest := m.store[0].CN; oldest != m.OutgoingCN()-quota+1 {
		t.Fatalf("oldest stored cn = %d, want %d: pruning did not drop the oldest", oldest, m.OutgoingCN()-quota+1)
	}
}

func TestForcedCheckpointOnHigherCN(t *testing.T) {
	// Node 1 advances its clock faster than node 2's periodic interval;
	// gossip messages carry the higher cn and must force checkpoints at
	// node 2 before processing (the happens-before rule).
	s := sim.New(5)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	factory := testsvc.NewWithPeers(1, 2)
	a := runtime.NewNode(s, net, 1, factory)
	b := runtime.NewNode(s, net, 2, factory)
	ma := NewManager(s, a, 200*time.Millisecond)
	mb := NewManager(s, b, time.Hour)
	_ = ma
	s.RunFor(3200 * time.Millisecond) // node 1's gossip (1s period) carries growing cn
	if mb.Stats.ForcedCheckpoints == 0 {
		t.Fatal("no forced checkpoints at the slow node")
	}
	// b's clock must track a's to within one gossip period's worth of
	// checkpoints (5 x 200ms) plus propagation.
	if mb.OutgoingCN()+6 < ma.OutgoingCN() {
		t.Fatalf("slow node's cn did not track: a=%d b=%d", ma.OutgoingCN(), mb.OutgoingCN())
	}
}

func TestCollectNeighborhoodSnapshot(t *testing.T) {
	f := setup(t, 3, time.Second)
	f.sim.RunFor(2 * time.Second)
	var got *Snapshot
	f.mgrs[0].Collect([]sm.NodeID{2, 3}, func(s *Snapshot) { got = s })
	f.sim.RunFor(2 * time.Second)
	if got == nil {
		t.Fatal("collection never completed")
	}
	if len(got.Missing) != 0 {
		t.Fatalf("missing = %v", got.Missing)
	}
	for _, id := range []sm.NodeID{1, 2, 3} {
		data, ok := got.States[id]
		if !ok {
			t.Fatalf("state for %v missing", id)
		}
		svc, timers, err := sm.DecodeFullState(testsvc.New, id, data)
		if err != nil {
			t.Fatalf("decode %v: %v", id, err)
		}
		if svc.(*testsvc.Svc).Self != id {
			t.Fatalf("decoded wrong node state")
		}
		if !timers.Has(testsvc.TimerGossip) {
			t.Fatalf("decoded timer set missing gossip timer")
		}
	}
}

func TestCollectSnapshotConsistentCut(t *testing.T) {
	// The fundamental consistency property: for every pair of
	// checkpoints in a snapshot, neither reflects a message sent after
	// the snapshot's logical time. With the testsvc counter protocol
	// this surfaces as: decoded counters may differ, but any message in
	// the cut carries cn <= snapshot CN, so a receiver's forced
	// checkpoint happens before processing. We verify the observable
	// half: every collection completes with states stamped at CN >= cr,
	// and a later collection never yields an older cut.
	f := setup(t, 4, 500*time.Millisecond)
	f.nodes[0].App(testsvc.Bump{})
	f.sim.RunFor(2 * time.Second)
	var first, second *Snapshot
	f.mgrs[0].Collect([]sm.NodeID{2, 3, 4}, func(s *Snapshot) { first = s })
	f.sim.RunFor(2 * time.Second)
	f.mgrs[0].Collect([]sm.NodeID{2, 3, 4}, func(s *Snapshot) { second = s })
	f.sim.RunFor(2 * time.Second)
	if first == nil || second == nil {
		t.Fatal("collections did not complete")
	}
	if second.CN <= first.CN {
		t.Fatalf("later snapshot has older cut: %d <= %d", second.CN, first.CN)
	}
}

func TestCollectWithDeadNeighbor(t *testing.T) {
	f := setup(t, 3, time.Second)
	f.sim.RunFor(time.Second)
	f.net.PartitionNode(3, true)
	var got *Snapshot
	f.mgrs[0].Collect([]sm.NodeID{2, 3}, func(s *Snapshot) { got = s })
	f.sim.RunFor(3 * time.Second)
	if got == nil {
		t.Fatal("collection never completed despite dead neighbor")
	}
	if len(got.Missing) != 1 || got.Missing[0] != 3 {
		t.Fatalf("missing = %v, want [3]", got.Missing)
	}
	if _, ok := got.States[2]; !ok {
		t.Fatal("live neighbor's state absent")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Two back-to-back collections with unchanged state: the second
	// response from each neighbor should be a Dup.
	// Collections run 200 ms apart, before the 1 s gossip timer can
	// change node 2's state, so its checkpoint bytes are identical.
	f := setup(t, 2, time.Hour)
	f.sim.RunFor(100 * time.Millisecond)
	var s1, s2 *Snapshot
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) { s1 = s })
	f.sim.RunFor(200 * time.Millisecond)
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) { s2 = s })
	f.sim.RunFor(500 * time.Millisecond)
	if s1 == nil || s2 == nil {
		t.Fatal("collections did not complete")
	}
	if f.mgrs[1].Stats.DupSuppressed == 0 {
		t.Fatal("duplicate checkpoint not suppressed")
	}
	if !bytes.Equal(s1.States[2], s2.States[2]) {
		t.Fatal("dup-resolved state differs from original")
	}
}

// TestDupNeverResolvesToAStaleCopy: a payload response lost in flight must not
// leave the requester holding an older copy that a later Dup would resolve
// to. Node 2 changes state, its response to the second collection is dropped
// by a partition, and the third collection, with node 2's checkpoint
// unchanged since, must hold those current bytes — not the first
// collection's.
func TestDupNeverResolvesToAStaleCopy(t *testing.T) {
	f := setup(t, 2, time.Hour)
	requester, responder := f.mgrs[0], f.mgrs[1]
	// Everything below happens before the first gossip timer (1 s), so node
	// 2's state changes only where the test changes it.
	f.sim.RunFor(100 * time.Millisecond)
	var s1, s2, s3 *Snapshot
	requester.Collect([]sm.NodeID{2}, func(s *Snapshot) { s1 = s })
	f.sim.RunFor(50 * time.Millisecond)
	if s1 == nil || len(s1.Missing) != 0 {
		t.Fatalf("first collection: %+v", s1)
	}
	stale := s1.States[2]

	f.nodes[1].App(testsvc.Bump{})
	f.sim.RunFor(50 * time.Millisecond)
	requester.Collect([]sm.NodeID{2}, func(s *Snapshot) { s2 = s })
	// The request lands after 5 ms and the response would after 10 ms:
	// sever the pair while the response travels, and let node 1's next
	// send to node 2 fail so the collection ends with node 2 missing.
	f.sim.RunFor(7 * time.Millisecond)
	f.net.Partition(1, 2, true)
	f.nodes[0].App(testsvc.Bump{})
	f.sim.RunFor(10 * time.Millisecond)
	if s2 == nil || len(s2.Missing) != 1 || s2.Missing[0] != 2 {
		t.Fatalf("second collection should miss node 2: %+v", s2)
	}
	f.net.Partition(1, 2, false)

	requester.Collect([]sm.NodeID{2}, func(s *Snapshot) { s3 = s })
	f.sim.RunFor(50 * time.Millisecond)
	if s3 == nil || len(s3.Missing) != 0 {
		t.Fatalf("third collection: %+v", s3)
	}
	current := responder.store[len(responder.store)-1].State
	if bytes.Equal(current, stale) {
		t.Fatal("node 2's checkpoint never changed: the test exercises nothing")
	}
	if !bytes.Equal(s3.States[2], current) {
		t.Fatalf("snapshot holds %d B for node 2, not its current %d B checkpoint (stale copy: %v)",
			len(s3.States[2]), len(current), bytes.Equal(s3.States[2], stale))
	}
}

// TestNewestCheckpointCarriesCN: every write of a manager's cn takes a
// checkpoint stamped with it, so the newest stored checkpoint always carries
// CN() — which is why a request at any CR <= CN() always finds a checkpoint
// and no negative response exists. Checked after every simulator event and
// every direct step: periodic ticks, forced checkpoints, requests ahead of
// and behind CN(), and collections well past the storage quota.
func TestNewestCheckpointCarriesCN(t *testing.T) {
	f := setup(t, 3, 70*time.Millisecond)
	check := func(step string) {
		t.Helper()
		for i, m := range f.mgrs {
			if m.OutgoingCN() == 0 {
				continue
			}
			if len(m.store) == 0 {
				t.Fatalf("%s: node %d at cn %d stores no checkpoint", step, i+1, m.OutgoingCN())
			}
			if got := m.store[len(m.store)-1].CN; got != m.OutgoingCN() {
				t.Fatalf("%s: node %d's newest checkpoint carries cn %d, its cn is %d", step, i+1, got, m.OutgoingCN())
			}
		}
	}
	events := func(n int) {
		for i := 0; i < n && f.sim.Step(); i++ {
			check("simulator event")
		}
	}
	for round := 0; round < 3*quota; round++ {
		events(20)
		switch round % 4 {
		case 0:
			f.mgrs[1].IncomingCN(f.mgrs[1].OutgoingCN() + 2)
			check("forced checkpoint")
		case 1:
			f.mgrs[2].HandleControl(1, ckptRequest{CR: f.mgrs[2].OutgoingCN() + 3, Seq: 1 << 40})
			check("request ahead of CN()")
		case 2:
			f.mgrs[2].HandleControl(1, ckptRequest{CR: 1, Seq: 1 << 40})
			check("request behind CN()")
		case 3:
			f.mgrs[0].Collect([]sm.NodeID{2, 3}, func(*Snapshot) {})
			check("collection")
		}
	}
	events(200)
	for i, m := range f.mgrs {
		if len(m.store) != quota {
			t.Fatalf("node %d stores %d checkpoints: the run never went past the quota %d", i+1, len(m.store), quota)
		}
	}
	if f.mgrs[0].Stats.SnapshotsCollected == 0 {
		t.Fatal("no collection completed")
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		var lzw coder
		c := lzw.compress(data)
		out, err := lzw.decompress(c)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(out) == 0
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReusedCoderEqualsFreshCoder: one coder carried across many payloads —
// random, redundant, empty, and a corrupt one that leaves the reader in an
// error state — compresses each to the bytes a coder built for that payload
// alone produces, and expands them to the same result.
func TestReusedCoderEqualsFreshCoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var reused coder
	for i := 0; i < 500; i++ {
		var data []byte
		switch i % 4 {
		case 0:
			data = make([]byte, rng.Intn(5000))
			rng.Read(data)
		case 1:
			data = bytes.Repeat([]byte{byte(i), byte(i >> 3), 7}, rng.Intn(3000))
		case 2:
			// Long enough on a small alphabet to fill and clear the code table.
			data = make([]byte, 20000+rng.Intn(20000))
			for j := range data {
				data[j] = byte(rng.Intn(4))
			}
		}
		var fresh coder
		want := fresh.compress(data)
		got := reused.compress(data)
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %d (%d B): reused coder wrote %d B that differ from a fresh coder's %d B", i, len(data), len(got), len(want))
		}
		if i%7 == 3 && len(got) > 4 {
			// A truncated or damaged payload must not poison the next one.
			bad := append([]byte(nil), got[:len(got)/2]...)
			bad[len(bad)/2] ^= 0xff
			fresh = coder{}
			wantOut, wantErr := fresh.decompress(bad)
			gotOut, gotErr := reused.decompress(bad)
			if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotOut, wantOut) {
				t.Fatalf("payload %d damaged: reused coder (%d B, %v), fresh coder (%d B, %v)", i, len(gotOut), gotErr, len(wantOut), wantErr)
			}
		}
		out, err := reused.decompress(got)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("payload %d: reused coder expands to %d B (%v), want the %d B that went in", i, len(out), err, len(data))
		}
	}
}

func TestCompressionShrinksRedundantData(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 200)
	var lzw coder
	c := lzw.compress(data)
	if len(c) >= len(data) {
		t.Fatalf("LZW did not shrink redundant data: %d -> %d", len(data), len(c))
	}
}

func TestOnlyOneCollectionAtATime(t *testing.T) {
	f := setup(t, 2, time.Hour)
	var second *Snapshot
	secondCalled := false
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) {})
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) { second = s; secondCalled = true })
	if !secondCalled || second != nil {
		t.Fatal("overlapping collection should fail fast with nil")
	}
}

func TestCheckpointSizeReporting(t *testing.T) {
	f := setup(t, 1, 100*time.Millisecond)
	f.sim.RunFor(time.Second)
	if f.mgrs[0].LatestCheckpointSize() == 0 {
		t.Fatal("no checkpoint size reported")
	}
}
