package dist

import (
	"reflect"
	"strings"
	"testing"

	"crystalball/internal/mc"
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
// name at one node are two transitions, and a reported path names each by
// its whole key. (Matching on node and name alone resolved both to the first
// and then failed the second on its argument fingerprint, so a valid path
// could not be replayed.)
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
		_, got, err := s.ReplayKeys(x, g, []sm.EventKey{DescribeEvent(ev, enc)}, false)
		if err != nil {
			t.Fatalf("%v: described path does not replay: %v", ev.Call, err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("%v: described path replays to %#x, the event reached %#x", ev.Call, got.Hash(), want.Hash())
		}
	}

	// And end to end: the sharded search claims the serial set.
	cfg.RecordClaimedStates = true
	cfg.Budget = mc.Budget{Depth: 4, Workers: 1}
	serial := mc.NewSearch(cfg).Run(g)
	res, err := Local(LocalConfig{Shards: 2, Search: cfg, Root: g, RecordStates: true})
	if err != nil {
		t.Fatalf("sharded round: %v", err)
	}
	if !reflect.DeepEqual(res.Checker.ClaimedStates, serial.ClaimedStates) || res.Stats.StatesReceived == 0 {
		t.Errorf("sharded round claims %d states (%d crossed between shards), serial %d",
			len(res.Checker.ClaimedStates), res.Stats.StatesReceived, len(serial.ClaimedStates))
	}
}

// TestMergeViolationsVerifiesReplayedHash: a reported violation whose path
// replays to a state other than the one it reports fails the round.
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
