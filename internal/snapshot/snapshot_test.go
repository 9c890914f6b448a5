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

func setup(t *testing.T, n int, cfg Config) *fixture {
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
		f.mgrs = append(f.mgrs, NewManager(s, node, cfg))
	}
	return f
}

func TestPeriodicCheckpoints(t *testing.T) {
	f := setup(t, 1, Config{Interval: time.Second, Quota: 100})
	f.sim.RunFor(5500 * time.Millisecond)
	if got := f.mgrs[0].Stats.CheckpointsTaken; got < 5 {
		t.Fatalf("checkpoints taken = %d, want >= 5", got)
	}
	if f.mgrs[0].CN() < 5 {
		t.Fatalf("cn = %d, want >= 5", f.mgrs[0].CN())
	}
}

func TestQuotaPrunesOldest(t *testing.T) {
	f := setup(t, 1, Config{Interval: 100 * time.Millisecond, Quota: 3})
	f.sim.RunFor(2 * time.Second)
	if got := f.mgrs[0].StoredCheckpoints(); got > 3 {
		t.Fatalf("stored = %d, quota 3", got)
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
	ma := NewManager(s, a, Config{Interval: 200 * time.Millisecond, Quota: 100})
	mb := NewManager(s, b, Config{Interval: time.Hour, Quota: 100})
	_ = ma
	s.RunFor(3200 * time.Millisecond) // node 1's gossip (1s period) carries growing cn
	if mb.Stats.ForcedCheckpoints == 0 {
		t.Fatal("no forced checkpoints at the slow node")
	}
	// b's clock must track a's to within one gossip period's worth of
	// checkpoints (5 x 200ms) plus propagation.
	if mb.CN()+6 < ma.CN() {
		t.Fatalf("slow node's cn did not track: a=%d b=%d", ma.CN(), mb.CN())
	}
}

func TestCollectNeighborhoodSnapshot(t *testing.T) {
	f := setup(t, 3, Config{Interval: time.Second, Quota: 100, CollectTimeout: time.Second, Compress: true})
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
	f := setup(t, 4, Config{Interval: 500 * time.Millisecond, Quota: 100, CollectTimeout: time.Second})
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
	f := setup(t, 3, Config{Interval: time.Second, Quota: 100, CollectTimeout: 500 * time.Millisecond})
	f.sim.RunFor(time.Second)
	f.net.Kill(3)
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
	f := setup(t, 2, Config{Interval: time.Hour, Quota: 100, CollectTimeout: time.Second})
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

func TestBandwidthLimitNegativeResponse(t *testing.T) {
	cfg := Config{Interval: time.Hour, Quota: 100, CollectTimeout: 500 * time.Millisecond,
		BandwidthLimitBps: 1} // effectively zero budget
	f := setup(t, 2, cfg)
	f.sim.RunFor(100 * time.Millisecond)
	// The first collection passes (empty window) and charges the
	// responder's budget; the second follows within the same 1 s window
	// and must be refused.
	var last *Snapshot
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) { last = s })
	f.sim.RunFor(300 * time.Millisecond)
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) { last = s })
	f.sim.RunFor(2 * time.Second)
	if last == nil {
		t.Fatal("collection did not complete")
	}
	if f.mgrs[1].Stats.NegativeResponses == 0 {
		t.Fatal("bandwidth limit never produced a negative response")
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
	f := setup(t, 2, Config{Interval: time.Hour, Quota: 100, CollectTimeout: time.Second})
	var second *Snapshot
	secondCalled := false
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) {})
	f.mgrs[0].Collect([]sm.NodeID{2}, func(s *Snapshot) { second = s; secondCalled = true })
	if !secondCalled || second != nil {
		t.Fatal("overlapping collection should fail fast with nil")
	}
}

func TestCheckpointSizeReporting(t *testing.T) {
	f := setup(t, 1, Config{Interval: 100 * time.Millisecond, Quota: 10})
	f.sim.RunFor(time.Second)
	if f.mgrs[0].LatestCheckpointSize() == 0 {
		t.Fatal("no checkpoint size reported")
	}
}
