package dist

import (
	"reflect"
	"strings"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
	"crystalball/internal/testsvc"
)

// add is an app call whose name does not pin it.
type add struct{ N int }

func (add) CallName() string           { return "Add" }
func (a add) EncodeCall(e *sm.Encoder) { e.Int(a.N) }

// adder is the gossip test service with two same-named calls enabled at
// once: Add(1) and Add(2), until the counter reaches 4.
type adder struct{ *testsvc.Svc }

func newAdder(self sm.NodeID) sm.Service {
	return adder{testsvc.NewWithPeers(1, 2)(self).(*testsvc.Svc)}
}

func (a adder) Clone() sm.Service { return a.CloneInto(nil) }

// CloneInto keeps the copy an adder: the embedded Svc's would return it bare.
func (a adder) CloneInto(dst sm.Service) sm.Service {
	d, _ := dst.(adder)
	return adder{a.Svc.CloneInto(d.Svc).(*testsvc.Svc)}
}

func (a adder) ModelAppCalls() []sm.AppCall {
	if a.N >= 4 {
		return nil
	}
	return []sm.AppCall{add{N: 1}, add{N: 2}}
}

func (a adder) HandleApp(ctx sm.Context, call sm.AppCall) {
	a.N += call.(add).N
	for _, p := range a.Neighbors() {
		ctx.Send(p, testsvc.Counter{N: a.N})
	}
}

func adderStart() (*mc.GState, mc.Config) {
	g := mc.NewGState()
	g.AddNode(1, newAdder(1), nil)
	g.AddNode(2, newAdder(2), nil)
	return g, mc.Config{Factory: newAdder, Mode: mc.Exhaustive, Seed: 42}
}

// TestReplayResolvesSameNamedCallsByArgument: two enabled calls with one
// name at one node are two transitions, and a forwarded path names each by
// its whole key. (Matching on node and name alone resolved both to the first
// and then failed the second on its argument fingerprint, so a valid path
// could not cross a wire.)
func TestReplayResolvesSameNamedCallsByArgument(t *testing.T) {
	g, cfg := adderStart()
	s := mc.NewSearch(cfg)
	x, enc := s.NewExpander(), sm.NewEncoder()
	var calls []sm.Event
	x.Events(g, func(ev sm.Event) {
		if ev.Kind == 'A' && ev.Node == 1 {
			calls = append(calls, ev)
		}
	})
	if len(calls) != 2 {
		t.Fatalf("node 1 enables %d calls, want Add(1) and Add(2)", len(calls))
	}
	for _, ev := range calls {
		want := s.ApplyEvent(g, ev)
		wire := sm.NewEncoder()
		sent := Batch{States: []ForwardState{{Hash: want.Hash(), Depth: 1, Path: []sm.EventKey{DescribeEvent(ev, enc)}}}}
		if err := encodeMsg(wire, sent); err != nil {
			t.Fatal(err)
		}
		m, err := decodeMsg(sm.NewDecoder(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fs := m.(Batch).States[0]
		_, got, err := s.ReplayKeys(x, g, fs.Path, false)
		if err != nil {
			t.Fatalf("%v: forwarded path does not replay: %v", ev.Call, err)
		}
		if got.Hash() != fs.Hash {
			t.Errorf("%v: forwarded path replays to %#x, sender reached %#x", ev.Call, got.Hash(), fs.Hash)
		}
	}

	// And end to end: the sharded search over TCP claims the serial set.
	cfg.RecordClaimedStates = true
	b := mc.Budget{Depth: 4, Workers: 1}
	serialCfg := cfg
	serialCfg.Budget = b
	serial := mc.NewSearch(serialCfg).Run(g)
	res, err := tcpRound(t, g, cfg, b, true)
	if err != nil {
		t.Fatalf("tcp round: %v", err)
	}
	if !reflect.DeepEqual(res.Checker.ClaimedStates, serial.ClaimedStates) || res.Stats.StatesReceived == 0 {
		t.Errorf("tcp claims %d states (%d crossed the wire), serial %d",
			len(res.Checker.ClaimedStates), res.Stats.StatesReceived, len(serial.ClaimedStates))
	}
}

// TestTCPViolationPathsReachReportedState is the wire half of the scenario
// oracle of the same name: over TCP a violation path reaches the coordinator
// as descriptors only, and every path it materialises, applied event by
// event from the start state, reaches the reported hash.
func TestTCPViolationPathsReachReportedState(t *testing.T) {
	g, cfg, err := scenario.InitialState("gcounter", scenario.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = mc.Exhaustive
	cfg.Seed = 42
	res, err := tcpRound(t, g, cfg, mc.Budget{Depth: 6, Workers: 1}, false)
	if err != nil {
		t.Fatalf("tcp round: %v", err)
	}
	if len(res.Checker.Violations) == 0 {
		t.Fatal("no violation within depth 6")
	}
	s := mc.NewSearch(cfg)
	for _, v := range res.Checker.Violations {
		at := g
		for i, ev := range v.Path {
			if at = s.ApplyEvent(at, ev); at == nil {
				t.Fatalf("path step %d (%s) not applicable", i, ev.Describe())
			}
		}
		if at.Hash() != v.StateHash || len(v.Path) != v.Depth {
			t.Errorf("%d-event path reaches %#x, violation reports %#x at depth %d", len(v.Path), at.Hash(), v.StateHash, v.Depth)
		}
	}
}

// TestMergeViolationsVerifiesReplayedHash: a wire violation whose path
// replays to a state other than the one it reports fails the round, as a
// forwarded state with the wrong hash fails shard.ingest.
func TestMergeViolationsVerifiesReplayedHash(t *testing.T) {
	g, cfg := adderStart()
	s := mc.NewSearch(cfg)
	ev := sm.AppInvocation(1, add{N: 1}, sm.NewEncoder())
	reached := s.ApplyEvent(g, ev).Hash()
	report := func(hash uint64) []ShardReport {
		return []ShardReport{{Violations: []Violation{{
			Props: []string{"p"}, Depth: 1, StateHash: hash,
			Path: []sm.EventKey{DescribeEvent(ev, sm.NewEncoder())},
		}}}}
	}
	c := NewCoordinator(nil, CoordinatorConfig{Search: s, Root: g})
	vios, err := c.mergeViolations(report(reached))
	if err != nil || len(vios) != 1 || len(vios[0].Path) != 1 || vios[0].Path[0] != ev {
		t.Fatalf("honest report: violations %+v, err %v", vios, err)
	}
	if _, err := c.mergeViolations(report(reached + 1)); err == nil || !strings.Contains(err.Error(), "diverged configurations?") {
		t.Fatalf("report of a hash its path does not reach: err %v, want a divergence error", err)
	}
}
