package scenario_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/runtime"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/testsvc"
)

// The checker ≡ runtime conformance oracle (the MET method of Zhang et al. in
// its cheapest form): every event a live node executes is replayed through
// the checker from the same pre-state, and the two post-states must encode to
// the same bytes. Both sides run sm.Deliver / sm.Restart, so what this pins is
// everything around them: the live context against sm.Effects, the timer
// bookkeeping of runtime.Node against the checker's timer set, crash-restart
// on both sides.
//
// It covers handlers that draw no randomness (the checker seeds a handler's
// stream from the state and the event, the runtime from the node's event
// count) and one node at a time (what a handler sends is not followed over
// simnet into the checker's in-flight set).

// conformance replays the events of live nodes through a checker.
type conformance struct {
	t       *testing.T
	factory sm.Factory
	search  *mc.Search
	prev    map[sm.NodeID][]byte // each node's full state after its previous event
	seen    map[string]int       // executed events by kind
}

func newConformance(t *testing.T, factory sm.Factory, nodes []*runtime.Node) *conformance {
	c := &conformance{
		t:       t,
		factory: factory,
		// A live transport error needs no RST in the one-node pre-state.
		search: mc.NewSearch(mc.Config{Factory: factory, ExploreConnBreaks: true}),
		prev:   make(map[sm.NodeID][]byte),
		seen:   make(map[string]int),
	}
	for _, node := range nodes {
		node := node
		c.prev[node.ID] = sm.EncodeFullState(node.View())
		node.OnEvent = func(ev sm.Event) { c.compare(node, ev, c.preState(node, ev)) }
	}
	return c
}

// preState rebuilds node's state before ev — what it was after its previous
// event — as a one-node checker state, a delivered message in flight.
func (c *conformance) preState(node *runtime.Node, ev sm.Event) *mc.GState {
	c.t.Helper()
	svc, timers, err := sm.DecodeFullState(c.factory, node.ID, c.prev[node.ID])
	if err != nil {
		c.t.Fatalf("%s: pre-state does not decode: %v", ev.Describe(), err)
	}
	g := mc.NewGState()
	g.AddNode(node.ID, svc, timers)
	if ev.Kind == 'M' {
		g.AddMessage(ev.From, ev.Node, ev.Msg)
	}
	return g
}

// compare applies ev, which node has just executed from pre, in the checker
// and requires equal post-states.
func (c *conformance) compare(node *runtime.Node, ev sm.Event, pre *mc.GState) {
	c.t.Helper()
	id := node.ID
	kind, _, _ := strings.Cut(ev.Class(), ":")
	c.seen[kind]++
	want := sm.EncodeFullState(node.View())
	c.prev[id] = want
	succ := c.search.ApplyEvent(pre, ev)
	if succ == nil {
		c.t.Fatalf("%s: executed live, not applicable in the checker (pending timers %v)", ev.Describe(), pre.Node(id).Timers)
	}
	ns := succ.Node(id)
	if got := sm.EncodeFullState(ns.Svc, ns.Timers); !bytes.Equal(got, want) {
		_, liveTimers := node.View()
		c.t.Fatalf("%s: checker and runtime disagree on the post-state\n checker: %x timers %v\n runtime: %x timers %v",
			ev.Describe(), got, ns.Timers, want, liveTimers)
	}
}

// run drives the deployment for a few virtual seconds: start, then every node
// keeps issuing the application call the checker would explore from its
// state; half-way one node crashes loudly, so its peers see transport errors.
func (c *conformance) run(s *sim.Simulator, nodes []*runtime.Node, start func()) {
	c.t.Helper()
	start()
	for i := 0; i < 20; i++ {
		s.After(time.Duration(i)*300*time.Millisecond, func() {
			for _, node := range nodes {
				if ma, ok := node.Service().(sm.ModelActions); ok {
					if calls := ma.ModelAppCalls(); len(calls) > 0 {
						node.App(calls[0])
					}
				}
			}
		})
	}
	s.RunFor(3 * time.Second)
	victim, crash := nodes[len(nodes)-1], sm.Reset(nodes[len(nodes)-1].ID)
	pre := c.preState(victim, crash)
	victim.Reset(false)
	c.compare(victim, crash, pre)
	s.RunFor(3 * time.Second)
	for _, kind := range []string{"app", "msg", "error", "reset"} {
		if c.seen[kind] == 0 {
			c.t.Errorf("no %s executed: %v", kind, c.seen)
		}
	}
	c.t.Logf("events compared: %v", c.seen)
}

func TestCheckerMatchesRuntime(t *testing.T) {
	for _, name := range []string{"paxos", "gcounter", "orset", "lwwmap"} {
		t.Run(name, func(t *testing.T) {
			d, err := scenario.Deploy(name, scenario.DeployOptions{Seed: 1, Control: scenario.Bare})
			if err != nil {
				t.Fatal(err)
			}
			factory, err := d.Scenario.Factory(d.Service)
			if err != nil {
				t.Fatal(err)
			}
			newConformance(t, factory, d.Nodes).run(d.Sim, d.Nodes, d.StartWorkload)
		})
	}
}

// fuse is a testsvc node whose gossip timer burns out: the third firing does
// not re-arm it.
type fuse struct{ *testsvc.Svc }

func (f fuse) HandleTimer(ctx sm.Context, t sm.TimerID) {
	if f.Gossips < 2 {
		f.Svc.HandleTimer(ctx, t)
		return
	}
	f.Gossips++
}
func (f fuse) Clone() sm.Service { return f.CloneInto(nil) }

// CloneInto keeps the copy a fuse: the embedded Svc's would return it bare.
func (f fuse) CloneInto(dst sm.Service) sm.Service {
	d, _ := dst.(fuse)
	return fuse{f.Svc.CloneInto(d.Svc).(*testsvc.Svc)}
}

// TestCheckerMatchesRuntimeOnTimers: none of the randomness-free scenarios
// above sets a timer, so the one-shot rule — a fired timer is gone unless its
// handler re-arms it — is compared on a service that has both kinds of firing.
func TestCheckerMatchesRuntimeOnTimers(t *testing.T) {
	ids := scenario.IDs(3)
	peers := testsvc.NewWithPeers(ids...)
	factory := func(id sm.NodeID) sm.Service { return fuse{peers(id).(*testsvc.Svc)} }
	s := sim.New(1)
	net := simnet.New(s, scenario.LANPath())
	var nodes []*runtime.Node
	for _, id := range ids {
		nodes = append(nodes, runtime.NewNode(s, net, id, factory))
	}
	c := newConformance(t, factory, nodes)
	c.run(s, nodes, func() {})
	if c.seen["timer"] < 3*len(nodes) {
		t.Errorf("%d timer events, want every node's timer to re-arm twice and burn out", c.seen["timer"])
	}
	if pending := nodes[0].TimerSet(); pending.Has(testsvc.TimerGossip) {
		t.Errorf("node %s still has %v pending: the burn-out firing never ran", nodes[0].ID, pending)
	}
}
