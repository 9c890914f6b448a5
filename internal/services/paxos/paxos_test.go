package paxos

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
)

var members = []sm.NodeID{1, 2, 3}

func deploy(t *testing.T, seed int64, cfg Config) (*sim.Simulator, *simnet.Network, []*runtime.Node) {
	t.Helper()
	cfg.Members = members
	s := sim.New(seed)
	net := simnet.New(s, simnet.UniformPath{Latency: 10 * time.Millisecond, BwBps: 1e9})
	factory := New(cfg)
	nodes := make([]*runtime.Node, len(members))
	for i, id := range members {
		nodes[i] = runtime.NewNode(s, net, id, factory)
	}
	return s, net, nodes
}

func chosenValues(nodes []*runtime.Node) map[int64]bool {
	out := map[int64]bool{}
	for _, n := range nodes {
		for _, v := range n.Service().(*Paxos).ChosenVals {
			out[v] = true
		}
	}
	return out
}

func TestBasicConsensus(t *testing.T) {
	s, _, nodes := deploy(t, 1, Config{})
	nodes[0].App(Propose{Val: 42})
	s.RunFor(time.Second)
	vals := chosenValues(nodes)
	if len(vals) != 1 || !vals[42] {
		t.Fatalf("chosen = %v, want {42}", vals)
	}
	for _, n := range nodes {
		p := n.Service().(*Paxos)
		if len(p.ChosenVals) != 1 {
			t.Fatalf("node %v chose %v", p.Self, p.ChosenVals)
		}
	}
}

func TestCompetingProposalsConverge(t *testing.T) {
	s, _, nodes := deploy(t, 2, Config{})
	nodes[0].App(Propose{Val: 10})
	s.RunFor(500 * time.Millisecond)
	nodes[2].App(Propose{Val: 30})
	s.RunFor(2 * time.Second)
	vals := chosenValues(nodes)
	if len(vals) != 1 {
		t.Fatalf("correct Paxos chose %d values: %v", len(vals), vals)
	}
	// The second round must re-propose the already-accepted 10.
	if !vals[10] {
		t.Fatalf("round 2 overrode the accepted value: %v", vals)
	}
}

// stageFigure13 drives the paper's Figure 13 schedule: round 1 with C
// disconnected (A proposes 0, chosen by {A, B}), then round 2 with A
// disconnected and B proposing 1. B's own loopback Promise (carrying the
// accepted 0) arrives before C's remote, valueless Promise; the bug 1
// leader takes its value from the *last* Promise and pushes 1. resetB
// additionally resets node B between rounds (the bug 2 trigger: B's promise
// was never written to disk, so even a correct value selection has nothing
// to recover).
func stageFigure13(s *sim.Simulator, net *simnet.Network, nodes []*runtime.Node, gap time.Duration, resetB bool) {
	a, b, c := nodes[0], nodes[1], nodes[2]
	_ = c
	net.PartitionNode(c.ID, true)
	a.App(Propose{Val: 0})
	s.RunFor(time.Second)
	net.PartitionNode(c.ID, false)
	if resetB {
		nodes[1].Reset(true)
	}
	s.RunFor(gap)
	net.PartitionNode(a.ID, true)
	b.App(Propose{Val: 1})
	s.RunFor(2 * time.Second)
	net.PartitionNode(a.ID, false)
	s.RunFor(time.Second)
}

func TestBug1ViolatesSafety(t *testing.T) {
	s, net, nodes := deploy(t, 3, Config{Bug1: true})
	stageFigure13(s, net, nodes, time.Second, false)
	vals := chosenValues(nodes)
	if len(vals) < 2 {
		t.Fatalf("bug1 scenario should choose two values, got %v", vals)
	}
	v := props.NewView()
	for _, n := range nodes {
		svc, timers := n.View()
		v.Add(n.ID, svc, timers)
	}
	if PropAtMostOneChosen.Check(v) {
		t.Fatal("property should be violated")
	}
}

func TestBug1FixedIsSafe(t *testing.T) {
	s, net, nodes := deploy(t, 3, Config{})
	stageFigure13(s, net, nodes, time.Second, false)
	vals := chosenValues(nodes)
	if len(vals) != 1 || !vals[0] {
		t.Fatalf("correct Paxos should re-propose 0, chose %v", vals)
	}
}

func TestBug2ViolatesSafetyAfterReset(t *testing.T) {
	s, net, nodes := deploy(t, 4, Config{Bug2: true})
	stageFigure13(s, net, nodes, time.Second, true)
	vals := chosenValues(nodes)
	if len(vals) < 2 {
		t.Fatalf("bug2 scenario should choose two values, got %v", vals)
	}
}

func TestBug2FixedSurvivesReset(t *testing.T) {
	s, net, nodes := deploy(t, 5, Config{})
	stageFigure13(s, net, nodes, time.Second, true)
	vals := chosenValues(nodes)
	if len(vals) != 1 || !vals[0] {
		t.Fatalf("persistent promises should keep the value at 0, chose %v", vals)
	}
}

func TestStableStorePersistsPromise(t *testing.T) {
	factory := New(Config{Members: members})
	p := factory(2).(*Paxos)
	p.PromisedRound = 7
	p.AcceptedRound = 7
	p.AcceptedVal = 99
	p.HasAccepted = true
	data := p.StableBytes()
	if data == nil {
		t.Fatal("correct acceptor must persist")
	}
	fresh := factory(2).(*Paxos)
	fresh.RestoreStable(data)
	if fresh.PromisedRound != 7 || !fresh.HasAccepted || fresh.AcceptedVal != 99 {
		t.Fatalf("restore lost state: %+v", fresh)
	}

	buggy := New(Config{Members: members, Bug2: true})(2).(*Paxos)
	buggy.PromisedRound = 7
	if buggy.StableBytes() != nil {
		t.Fatal("bug2 acceptor must not persist")
	}
}

func TestNextRoundUniquePerProposer(t *testing.T) {
	factory := New(Config{Members: members})
	seen := map[uint64]bool{}
	for _, id := range members {
		p := factory(id).(*Paxos)
		r := p.NextRound()
		if seen[r] {
			t.Fatalf("round %d issued twice", r)
		}
		seen[r] = true
	}
	// Rounds advance past anything promised.
	p := factory(1).(*Paxos)
	p.PromisedRound = 10
	if r := p.NextRound(); r <= 10 {
		t.Fatalf("NextRound() = %d, want > 10", r)
	}
}

// TestMCPredictsBug1Violation reproduces the steering setup: the checker
// starts from the post-round-1 snapshot and must predict that a second
// round can choose a different value.
func TestMCPredictsBug1Violation(t *testing.T) {
	factory := New(Config{Members: members, Bug1: true})
	start := postRound1State(t, factory)
	s := mc.NewSearch(mc.Config{
		Props:   Properties,
		Factory: factory,
		Mode:    mc.Consequence,
		Budget:  mc.Budget{States: 120000, Violations: 1},
	})
	res := s.Run(start)
	if len(res.Violations) == 0 {
		t.Fatalf("checker missed the bug1 violation (%d states)", res.StatesExplored)
	}
}

// TestMCDoesNotFlagCorrectPaxos: with both bugs fixed the same exploration
// finds no violation (no false positives).
func TestMCDoesNotFlagCorrectPaxos(t *testing.T) {
	factory := New(Config{Members: members})
	start := postRound1State(t, factory)
	s := mc.NewSearch(mc.Config{
		Props:   Properties,
		Factory: factory,
		Mode:    mc.Consequence,
		Budget:  mc.Budget{States: 20000, Violations: 1},
	})
	res := s.Run(start)
	if len(res.Violations) != 0 {
		t.Fatalf("false positive on correct Paxos: %v", res.Violations[0].Properties)
	}
}

// postRound1State builds the snapshot after Figure 13's first round: A and
// B accepted (round 3, value 0) and A observed the value chosen; C is
// fresh.
func postRound1State(t *testing.T, factory sm.Factory) *mc.GState {
	t.Helper()
	a := factory(1).(*Paxos)
	a.PromisedRound = 3
	a.AcceptedRound = 3
	a.AcceptedVal = 0
	a.HasAccepted = true
	a.CurRound = 3
	a.Proposing = true
	a.AcceptSent = true
	a.ChosenVals = []int64{0}
	a.Learns = map[uint64]map[sm.NodeID]int64{3: {1: 0, 2: 0}}

	b := factory(2).(*Paxos)
	b.PromisedRound = 3
	b.AcceptedRound = 3
	b.AcceptedVal = 0
	b.HasAccepted = true
	b.Learns = map[uint64]map[sm.NodeID]int64{3: {2: 0}}

	c := factory(3).(*Paxos)

	g := mc.NewGState()
	g.AddNode(1, a, nil)
	g.AddNode(2, b, nil)
	g.AddNode(3, c, nil)
	return g
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	factory := New(Config{Members: members, Bug1: true})
	p := factory(2).(*Paxos)
	p.PromisedRound = 9
	p.HasAccepted = true
	p.AcceptedVal = 5
	p.Promises = []promiseInfo{{From: 1, HasAccepted: true, AcceptedRound: 3, AcceptedVal: 5}}
	p.Learns = map[uint64]map[sm.NodeID]int64{9: {1: 5, 2: 5}}
	p.ChosenVals = []int64{5}
	data := sm.EncodeFullState(p, nil)
	svc, _, err := sm.DecodeFullState(factory, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	q := svc.(*Paxos)
	if !bytes.Equal(sm.EncodeService(p), sm.EncodeService(q)) {
		t.Fatal("hash mismatch after round trip")
	}
	if len(q.Promises) != 1 || q.Promises[0].From != 1 {
		t.Fatalf("promises lost: %+v", q.Promises)
	}
	if q.Learns[9][2] != 5 {
		t.Fatal("learns lost")
	}
}

func TestCloneIndependence(t *testing.T) {
	factory := New(Config{Members: members})
	p := factory(1).(*Paxos)
	// A node that has learned nothing carries no map, nor does its clone: the
	// first Learn makes one.
	if p.Learns != nil || p.Clone().(*Paxos).Learns != nil {
		t.Fatal("a fresh node (or its clone) allocates an empty learns map")
	}
	p.HandleMessage(&sm.Effects{}, 2, Learn{Round: 1, Val: 7})
	if p.Learns[1][2] != 7 {
		t.Fatalf("first Learn not recorded: %v", p.Learns)
	}
	q := p.Clone().(*Paxos)
	q.Learns[1][3] = 8
	if _, ok := p.Learns[1][3]; ok {
		t.Fatal("clone shares learns map")
	}
}

// TestPaxosStructSize: the checker clones a Paxos per executed transition, so
// its size class is a per-transition cost. 112 bytes with Self and the three
// flags in one word; a bool between two words takes a word of its own, and
// three of them did (136 bytes, the 144-byte class).
func TestPaxosStructSize(t *testing.T) {
	if size := unsafe.Sizeof(Paxos{}); size > 112 {
		t.Fatalf("Paxos is %d bytes, want <= 112: keep the small fields together", size)
	}
}
