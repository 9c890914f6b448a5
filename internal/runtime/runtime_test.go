package runtime

import (
	"testing"
	"time"

	"crystalball/internal/props"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/testsvc"
)

func deploy(t *testing.T, n int) (*sim.Simulator, *simnet.Network, []*Node) {
	t.Helper()
	s := sim.New(11)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	ids := make([]sm.NodeID, n)
	for i := range ids {
		ids[i] = sm.NodeID(i + 1)
	}
	factory := testsvc.NewWithPeers(ids...)
	nodes := make([]*Node, n)
	for i, id := range ids {
		nodes[i] = NewNode(s, net, id, factory)
	}
	return s, net, nodes
}

func TestGossipPropagates(t *testing.T) {
	s, _, nodes := deploy(t, 3)
	nodes[0].App(testsvc.Bump{})
	s.RunFor(5 * time.Second)
	for i, n := range nodes {
		if n.Service().(*testsvc.Svc).N != 1 {
			t.Fatalf("node %d did not receive the gossip: N=%d", i, n.Service().(*testsvc.Svc).N)
		}
	}
}

func TestTimersRunPeriodically(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	s.RunFor(10500 * time.Millisecond)
	g := nodes[0].Service().(*testsvc.Svc).Gossips
	if g < 9 || g > 11 {
		t.Fatalf("gossip timer fired %d times in 10.5s, want ~10", g)
	}
}

func TestTimerSetTracksPending(t *testing.T) {
	_, _, nodes := deploy(t, 1)
	ts := nodes[0].TimerSet()
	if !ts.Has(testsvc.TimerGossip) {
		t.Fatalf("gossip timer not pending after Init: %v", ts)
	}
}

func TestMessageFilterDrops(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	nodes[1].InstallFilter(sm.Filter{
		Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Counter"},
	})
	nodes[0].App(testsvc.Bump{})
	s.RunFor(3 * time.Second)
	if nodes[1].Service().(*testsvc.Svc).N != 0 {
		t.Fatal("filtered message was processed")
	}
	if nodes[1].Stats.MessagesDropped == 0 {
		t.Fatal("drop not counted")
	}
	nodes[1].ClearFilters()
	nodes[0].App(testsvc.Bump{})
	s.RunFor(3 * time.Second)
	if nodes[1].Service().(*testsvc.Svc).N == 0 {
		t.Fatal("message still blocked after ClearFilters")
	}
}

func TestMessageFilterBreakConnSignalsSender(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	// Establish a connection first so the RST reaches a live socket.
	nodes[0].App(testsvc.Bump{})
	s.RunFor(time.Second)
	nodes[1].InstallFilter(sm.Filter{
		Key: sm.EventKey{Kind: 'M', From: 1, Node: 2, Name: "Counter"}, BreakConn: true,
	})
	before := nodes[0].Service().(*testsvc.Svc).Errors
	nodes[0].App(testsvc.Bump{})
	s.RunFor(3 * time.Second)
	if nodes[0].Service().(*testsvc.Svc).Errors <= before {
		t.Fatal("sender did not observe the steering connection reset")
	}
}

func TestTimerFilterReschedules(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	nodes[0].InstallFilter(sm.Filter{Key: sm.EventKey{Kind: 'T', Node: 1, Name: string(testsvc.TimerGossip)}})
	s.RunFor(5 * time.Second)
	if nodes[0].Service().(*testsvc.Svc).Gossips != 0 {
		t.Fatal("filtered timer handler ran")
	}
	if nodes[0].Stats.TimersDeferred == 0 {
		t.Fatal("timer deferral not counted")
	}
	// Removing the filter lets the deferred timer eventually fire.
	nodes[0].ClearFilters()
	s.RunFor(2 * time.Second)
	if nodes[0].Service().(*testsvc.Svc).Gossips == 0 {
		t.Fatal("timer never fired after filter removal (rescheduling lost it)")
	}
}

func TestAppFilterBlocks(t *testing.T) {
	s, _, nodes := deploy(t, 1)
	nodes[0].InstallFilter(sm.Filter{Key: sm.EventKey{Kind: 'A', Node: 1, Name: "Bump"}})
	nodes[0].App(testsvc.Bump{})
	s.RunFor(time.Second)
	if nodes[0].Service().(*testsvc.Svc).N != 0 {
		t.Fatal("filtered app call executed")
	}
	if nodes[0].Stats.AppsBlocked != 1 {
		t.Fatalf("AppsBlocked = %d", nodes[0].Stats.AppsBlocked)
	}
}

func TestResetReinitialisesService(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	nodes[0].App(testsvc.Bump{})
	s.RunFor(2 * time.Second)
	if nodes[0].Service().(*testsvc.Svc).N != 1 {
		t.Fatal("setup failed")
	}
	nodes[0].Reset(true)
	if got := nodes[0].Service().(*testsvc.Svc).N; got != 0 {
		t.Fatalf("state survived reset: N=%d", got)
	}
	if nodes[0].Stats.Resets != 1 {
		t.Fatal("reset not counted")
	}
	// The fresh instance scheduled its gossip timer.
	if !nodes[0].TimerSet().Has(testsvc.TimerGossip) {
		t.Fatal("timers not rescheduled after reset")
	}
}

func TestTransportErrorReachesService(t *testing.T) {
	s, net, nodes := deploy(t, 2)
	nodes[0].App(testsvc.Bump{})
	s.RunFor(time.Second)
	net.PartitionNode(2, true)
	nodes[0].App(testsvc.Bump{}) // send to a severed node -> ConnError
	s.RunFor(time.Second)
	svc := nodes[0].Service().(*testsvc.Svc)
	if svc.Errors == 0 {
		t.Fatal("transport error not delivered to service")
	}
	if svc.Peers[2] {
		t.Fatal("service did not clean up dead peer")
	}
}

func TestISCBlocksUnsafeHandler(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	// Property: counter stays below 1 — the very first Bump gossip
	// delivery would violate it at node 2.
	ps := props.Set{testsvc.CounterBelow(1)}
	nodes[1].EnableISC(ps, func() *props.View { return props.NewView() })
	nodes[0].App(testsvc.Bump{})
	s.RunFor(3 * time.Second)
	if nodes[1].Service().(*testsvc.Svc).N != 0 {
		t.Fatal("ISC failed to block the violating handler")
	}
	if nodes[1].Stats.ISCBlocks == 0 {
		t.Fatal("ISC block not counted")
	}
	// The real state machine was never touched: the live node still
	// satisfies the property.
	if !ps.Holds(viewOf(nodes[1])) {
		t.Fatal("live state violates property despite ISC")
	}
}

// quitter is a testsvc node whose gossip handler never re-arms its timer.
type quitter struct{ *testsvc.Svc }

func (q quitter) HandleTimer(ctx sm.Context, t sm.TimerID) { q.Gossips++ }
func (q quitter) Clone() sm.Service                        { return q.CloneInto(nil) }

// CloneInto keeps the copy a quitter: the embedded Svc's would return it bare.
func (q quitter) CloneInto(dst sm.Service) sm.Service {
	d, _ := dst.(quitter)
	return quitter{q.Svc.CloneInto(d.Svc).(*testsvc.Svc)}
}

// TestISCVetoesTimerHandlerThatDropsItsTimer: the ISC judges a timer event
// against the state the handler starts from, in which the firing timer is
// still pending. A handler that fails to re-arm a timer a property requires
// therefore introduces the violation and is vetoed and rescheduled; with the
// timer consumed before the check, the violation read as pre-existing and
// the handler ran.
func TestISCVetoesTimerHandlerThatDropsItsTimer(t *testing.T) {
	s := sim.New(11)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	n := NewNode(s, net, 1, func(id sm.NodeID) sm.Service { return quitter{testsvc.New(id).(*testsvc.Svc)} })
	gossipPending := props.Property{
		Name: "GossipTimerPending",
		Check: func(v *props.View) bool {
			for _, id := range v.IDs() {
				if !v.Get(id).TimerPending(testsvc.TimerGossip) {
					return false
				}
			}
			return true
		},
	}
	n.EnableISC(props.Set{gossipPending}, nil)
	s.RunFor(3 * time.Second)
	if n.Stats.ISCBlocks == 0 {
		t.Fatalf("ISC let the timer handler drop the gossip timer: %d checks, 0 blocks", n.Stats.ISCChecks)
	}
	if g := n.Service().(quitter).Gossips; g != 0 {
		t.Fatalf("vetoed handler ran for real %d times", g)
	}
	if !n.TimerSet().Has(testsvc.TimerGossip) {
		t.Fatal("vetoed timer was not rescheduled")
	}
}

// coin is a testsvc node whose gossip handler stores a draw of its
// invocation's random stream in N and re-arms the timer. A second timer,
// tick, fires more often and draws nothing: it moves the node's event count,
// so a vetoed gossip firing's retry draws a new stream.
type coin struct{ *testsvc.Svc }

const tick sm.TimerID = "tick"

func (c coin) Init(ctx sm.Context) {
	c.Svc.Init(ctx)
	ctx.SetTimer(tick, 3*sm.Second/10)
}

func (c coin) HandleTimer(ctx sm.Context, t sm.TimerID) {
	if t == tick {
		ctx.SetTimer(tick, 3*sm.Second/10)
		return
	}
	c.N = ctx.Rand().Intn(2)
	ctx.SetTimer(testsvc.TimerGossip, sm.Second)
}
func (c coin) Clone() sm.Service { return c.CloneInto(nil) }

// CloneInto keeps the copy a coin: the embedded Svc's would return it bare.
func (c coin) CloneInto(dst sm.Service) sm.Service {
	d, _ := dst.(coin)
	return coin{c.Svc.CloneInto(d.Svc).(*testsvc.Svc)}
}

// TestISCSpeculatesOnTheStreamTheHandlerDraws: the ISC's speculative run of
// an event draws the random stream the executed handler then draws, so a
// handler whose draw alone decides a violation is vetoed exactly when it
// would violate. Speculating on another invocation's stream let such
// firings through.
func TestISCSpeculatesOnTheStreamTheHandlerDraws(t *testing.T) {
	s := sim.New(11)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	n := NewNode(s, net, 1, func(id sm.NodeID) sm.Service { return coin{testsvc.New(id).(*testsvc.Svc)} })
	drewZero := props.Property{
		Name: "DrewZero",
		Check: func(v *props.View) bool {
			for _, nv := range v.Nodes() {
				if nv.Svc.(coin).N != 0 {
					return false
				}
			}
			return true
		},
	}
	n.EnableISC(props.Set{drewZero}, nil)
	executed, through := 0, 0
	n.OnEvent = func(ev sm.Event) {
		if ev.Name != string(testsvc.TimerGossip) {
			return
		}
		executed++
		if n.Service().(coin).N != 0 {
			through++
		}
	}
	s.RunFor(10 * time.Minute)
	if through != 0 {
		t.Fatalf("%d of %d executed firings left the draw at 1 under the ISC (%d checks, %d blocks)", through, executed, n.Stats.ISCChecks, n.Stats.ISCBlocks)
	}
	if executed == 0 || n.Stats.ISCBlocks == 0 {
		t.Fatalf("%d firings executed, %d vetoed: the test exercises nothing", executed, n.Stats.ISCBlocks)
	}
	t.Logf("%d firings executed, %d vetoed", executed, n.Stats.ISCBlocks)
}

func viewOf(n *Node) *props.View {
	v := props.NewView()
	svc, timers := n.View()
	v.Add(n.ID, svc, timers)
	return v
}

func TestISCAllowsSafeHandler(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	nodes[1].EnableISC(props.Set{testsvc.CounterBelow(100)}, func() *props.View { return props.NewView() })
	nodes[0].App(testsvc.Bump{})
	s.RunFor(3 * time.Second)
	if nodes[1].Service().(*testsvc.Svc).N != 1 {
		t.Fatal("ISC blocked a safe handler")
	}
	if nodes[1].Stats.ISCChecks == 0 {
		t.Fatal("ISC did not run")
	}
	if nodes[1].Stats.ISCBlocks != 0 {
		t.Fatal("spurious ISC block")
	}
}

func TestISCDisable(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	nodes[1].EnableISC(props.Set{testsvc.CounterBelow(1)}, nil)
	nodes[1].iscOn = false // the check off
	nodes[0].App(testsvc.Bump{})
	s.RunFor(3 * time.Second)
	if nodes[1].Service().(*testsvc.Svc).N != 1 {
		t.Fatal("disabled ISC still blocking")
	}
}

func TestOnEventCallback(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	var events []sm.Event
	nodes[1].OnEvent = func(ev sm.Event) { events = append(events, ev) }
	nodes[0].App(testsvc.Bump{})
	s.RunFor(1500 * time.Millisecond)
	var sawMsg, sawTimer bool
	for _, ev := range events {
		sawMsg = sawMsg || ev.Kind == 'M'
		sawTimer = sawTimer || ev.Kind == 'T'
	}
	if !sawMsg || !sawTimer {
		t.Fatalf("OnEvent missed events: msg=%v timer=%v", sawMsg, sawTimer)
	}
}

func TestActionCounting(t *testing.T) {
	s, _, nodes := deploy(t, 2)
	s.RunFor(5 * time.Second)
	if nodes[0].Stats.ActionsExecuted == 0 {
		t.Fatal("no actions counted")
	}
}

func TestSpeculationMatchesRealExecution(t *testing.T) {
	// With ISC enabled but never blocking, live behaviour must equal a
	// run without ISC: speculation must not consume the service's
	// randomness or leak effects.
	run := func(isc bool) int {
		s := sim.New(99)
		net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
		factory := testsvc.NewWithPeers(1, 2)
		a := NewNode(s, net, 1, factory)
		b := NewNode(s, net, 2, factory)
		if isc {
			b.EnableISC(props.Set{testsvc.CounterBelow(1 << 30)}, nil)
		}
		a.App(testsvc.Bump{})
		s.RunFor(10 * time.Second)
		return b.Service().(*testsvc.Svc).N
	}
	if run(true) != run(false) {
		t.Fatal("ISC speculation changed live behaviour")
	}
}

// TestInvocationRNGMatchesFreshRand: a node re-seeds its one random stream
// per handler invocation, and the stream must be the one a fresh
// sm.NewRand(seed) draws — whatever the previous invocation left in it,
// including a partly consumed Read — so the ISC's speculative run, the live
// run and a replay all draw the same numbers.
func TestInvocationRNGMatchesFreshRand(t *testing.T) {
	s, _, nodes := deploy(t, 1)
	n := nodes[0]
	s.RunFor(5 * time.Second) // some events, so eventSeq is not 0
	buf := make([]byte, 3)
	for round := 0; round < 3; round++ {
		dirty := n.invocationRNG(n.eventSeq)
		dirty.Intn(1000)
		dirty.Read(buf) // leaves the Rand's Read buffer half used
		rng, want := n.invocationRNG(n.eventSeq), sm.NewRand(invocationSeed(n.seed, n.eventSeq))
		for i := 0; i < 300; i++ {
			var got, exp uint64
			switch i % 3 {
			case 0:
				got, exp = uint64(rng.Int63()), uint64(want.Int63())
			case 1:
				got, exp = uint64(rng.Intn(97)), uint64(want.Intn(97))
			case 2:
				rng.Read(buf[:1])
				g := buf[0]
				want.Read(buf[:1])
				got, exp = uint64(g), uint64(buf[0])
			}
			if got != exp {
				t.Fatalf("eventSeq %d, draw %d: re-seeded stream %d, fresh sm.NewRand %d", n.eventSeq, i, got, exp)
			}
		}
		n.eventSeq++
	}
}
