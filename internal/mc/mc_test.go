package mc

import (
	"strconv"
	"testing"
	"time"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// toy is a minimal test service: nodes exchange Ping messages carrying a
// counter; a node whose counter reaches a target value is "poisoned". A
// reset clears the counter. The service also keeps a naive peers set so
// reset exploration has neighbors to notify.
type toy struct {
	self    sm.NodeID
	counter int
	peers   map[sm.NodeID]bool
	errs    int
}

type ping struct{ N int }

func (ping) MsgType() string           { return "Ping" }
func (ping) Size() int                 { return 8 }
func (p ping) EncodeMsg(e *sm.Encoder) { e.Int(p.N) }

// note is a message the toy ignores; each K travels its own (from,to,type)
// queue, so tests can load a state with many in-flight items that are all
// deliverable and none of which is ever re-positioned.
type note struct{ K int }

func (n note) MsgType() string         { return "Note" + strconv.Itoa(n.K) }
func (note) Size() int                 { return 8 }
func (n note) EncodeMsg(e *sm.Encoder) { e.Int(n.K) }

type kick struct{}

func (kick) CallName() string         { return "Kick" }
func (kick) EncodeCall(e *sm.Encoder) {}

func newToy(self sm.NodeID) sm.Service {
	return &toy{self: self, peers: make(map[sm.NodeID]bool)}
}

func (t *toy) Init(ctx sm.Context) {}

func (t *toy) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	p, ok := msg.(ping)
	if !ok {
		return
	}
	t.peers[from] = true
	if p.N > t.counter {
		t.counter = p.N
	}
	// Bounce back an incremented ping until a limit, creating a chain of
	// causally related events the checker can follow.
	if p.N < 10 {
		ctx.Send(from, ping{N: p.N + 1})
	}
}

func (t *toy) HandleTimer(ctx sm.Context, tid sm.TimerID) {
	switch tid {
	case "tick":
		t.counter++
		ctx.SetTimer("tick", sm.Second)
	case "idle":
		// Only re-arms itself: the successor is the state it fired in.
		ctx.SetTimer("idle", sm.Second)
	}
}

func (t *toy) HandleApp(ctx sm.Context, call sm.AppCall) {
	if call.CallName() == "Kick" {
		for p := range t.peers {
			ctx.Send(p, ping{N: t.counter + 1})
		}
	}
}

func (t *toy) HandleTransportError(ctx sm.Context, peer sm.NodeID) {
	t.errs++
	delete(t.peers, peer)
}

func (t *toy) Neighbors() []sm.NodeID { return sm.SortedNodes(t.peers) }

func (t *toy) Clone() sm.Service { return t.CloneInto(nil) }

func (t *toy) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*toy)
	if !ok {
		out = new(toy)
	}
	peers := out.peers
	*out = *t
	out.peers = sm.CopyNodeSet(peers, t.peers)
	return out
}

func (t *toy) EncodeState(e *sm.Encoder) {
	e.NodeID(t.self)
	e.Int(t.counter)
	e.NodeSet(t.peers)
	e.Int(t.errs)
}

func (t *toy) DecodeState(d *sm.Decoder) error {
	t.self = d.NodeID()
	t.counter = d.Int()
	t.peers = d.NodeSet()
	t.errs = d.Int()
	return d.Err()
}

// kickCalls is shared by every toy: the checker only reads the list.
var kickCalls = []sm.AppCall{kick{}}

func (t *toy) ModelAppCalls() []sm.AppCall { return kickCalls }

// poisonAt returns a property violated when any node's counter reaches n.
func poisonAt(n int) props.Set {
	return props.Set{{
		Name: "CounterBelowLimit",
		Check: func(v *props.View) bool {
			for _, id := range v.IDs() {
				if v.Get(id).Svc.(*toy).counter >= n {
					return false
				}
			}
			return true
		},
	}}
}

// twoNodeStart builds a 2-node start state with a ping in flight.
func twoNodeStart() *GState {
	g := NewGState()
	a, b := newToy(1).(*toy), newToy(2).(*toy)
	a.peers[2] = true
	b.peers[1] = true
	g.AddNode(1, a, nil)
	g.AddNode(2, b, nil)
	g.AddMessage(1, 2, ping{N: 1})
	return g
}

func TestExhaustiveFindsShallowViolation(t *testing.T) {
	s := NewSearch(Config{
		Props:   poisonAt(3),
		Factory: newToy,
		Mode:    Exhaustive,
		Budget:  Budget{States: 10000},
	})
	res := s.Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("exhaustive search missed a reachable violation")
	}
	v := res.Violations[0]
	if v.Depth == 0 || len(v.Path) != v.Depth {
		t.Fatalf("bad violation path: depth=%d len=%d", v.Depth, len(v.Path))
	}
	if v.Properties[0] != "CounterBelowLimit" {
		t.Fatalf("wrong property: %v", v.Properties)
	}
}

func TestConsequenceFindsSameViolation(t *testing.T) {
	s := NewSearch(Config{
		Props:   poisonAt(3),
		Factory: newToy,
		Mode:    Consequence,
		Budget:  Budget{States: 10000},
	})
	res := s.Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("consequence prediction missed the violation")
	}
}

func TestConsequenceExploresFewerStates(t *testing.T) {
	// With timers on both nodes the exhaustive search interleaves
	// internal actions freely; consequence prediction prunes repeats of
	// (node, local state) internal expansions and must explore fewer
	// states to the same depth.
	mk := func(mode Mode) *Result {
		g := NewGState()
		a, b := newToy(1).(*toy), newToy(2).(*toy)
		a.peers[2] = true
		b.peers[1] = true
		g.AddNode(1, a, sm.TimerSet{"tick"})
		g.AddNode(2, b, sm.TimerSet{"tick"})
		g.AddMessage(1, 2, ping{N: 1})
		s := NewSearch(Config{
			Props:   poisonAt(1000), // unreachable: full exploration
			Factory: newToy,
			Mode:    mode,
			Budget:  Budget{States: 200000, Depth: 6},
		})
		return s.Run(g)
	}
	ex := mk(Exhaustive)
	cp := mk(Consequence)
	if cp.StatesExplored >= ex.StatesExplored {
		t.Fatalf("consequence (%d states) should explore fewer than exhaustive (%d)",
			cp.StatesExplored, ex.StatesExplored)
	}
	if cp.LocalPrunes == 0 {
		t.Fatal("consequence mode reported no prunes")
	}
	if ex.LocalPrunes != 0 {
		t.Fatal("exhaustive mode should not prune")
	}
}

func TestResetExploration(t *testing.T) {
	// Property: no node ever observes a transport error. Only a reset
	// (with its RST) can cause one, so finding a violation proves reset
	// transitions and RST delivery are explored.
	errProp := props.Set{{
		Name: "NoTransportErrors",
		Check: func(v *props.View) bool {
			for _, id := range v.IDs() {
				if v.Get(id).Svc.(*toy).errs > 0 {
					return false
				}
			}
			return true
		},
	}}
	s := NewSearch(Config{
		Props:            errProp,
		Factory:          newToy,
		Mode:             Consequence,
		ExploreResets:    true,
		MaxResetsPerPath: 1,
		Budget:           Budget{States: 50000, Violations: 1},
	})
	res := s.Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("reset + RST delivery not explored")
	}
	// The path must contain a reset followed by a transport error.
	var sawReset, sawError bool
	for _, ev := range res.Violations[0].Path {
		sawReset = sawReset || ev.Kind == 'R'
		sawError = sawError || ev.Kind == 'E'
	}
	if !sawReset || !sawError {
		t.Fatalf("path should include reset and error events: %v", describePath(res.Violations[0].Path))
	}
}

func describePath(path []sm.Event) []string {
	out := make([]string, len(path))
	for i, ev := range path {
		out[i] = ev.Describe()
	}
	return out
}

func TestDepthBound(t *testing.T) {
	s := NewSearch(Config{
		Props:   poisonAt(1000),
		Factory: newToy,
		Mode:    Exhaustive,
		Budget:  Budget{Depth: 3},
	})
	res := s.Run(twoNodeStart())
	if res.MaxDepthReached > 3 {
		t.Fatalf("depth bound violated: %d", res.MaxDepthReached)
	}
	if len(res.Violations) != 0 {
		t.Fatal("no violation reachable at depth 3")
	}
}

func TestStateBound(t *testing.T) {
	s := NewSearch(Config{
		Props:   poisonAt(1000),
		Factory: newToy,
		Mode:    Exhaustive,
		Budget:  Budget{States: 10},
	})
	res := s.Run(twoNodeStart())
	if res.StatesExplored > 10 {
		t.Fatalf("state bound violated: %d", res.StatesExplored)
	}
}

func TestWallClockBound(t *testing.T) {
	s := NewSearch(Config{
		Props:   poisonAt(1000),
		Factory: newToy,
		Mode:    Exhaustive,
		Budget:  Budget{Wall: time.Millisecond},
	})
	began := time.Now()
	s.Run(twoNodeStart())
	if time.Since(began) > 2*time.Second {
		t.Fatal("wall-clock bound ignored")
	}
}

// TestModeStringReportsUnknown: the two modes render their names and any
// other value is reported explicitly instead of masquerading as a mode, as
// controller.Mode does.
func TestModeStringReportsUnknown(t *testing.T) {
	if got := Exhaustive.String(); got != "exhaustive" {
		t.Fatalf("Exhaustive = %q", got)
	}
	if got := Consequence.String(); got != "consequence" {
		t.Fatalf("Consequence = %q", got)
	}
	if got := Mode(7).String(); got != "unknown-mode(7)" {
		t.Fatalf("Mode(7) = %q, want unknown-mode(7)", got)
	}
	if got := Mode(-1).String(); got != "unknown-mode(-1)" {
		t.Fatalf("Mode(-1) = %q, want unknown-mode(-1)", got)
	}
}

func TestDeterministicSearch(t *testing.T) {
	run := func() *Result {
		s := NewSearch(Config{
			Props:   poisonAt(4),
			Factory: newToy,
			Mode:    Consequence,
			// Workers pinned: under a state cutoff only the serial
			// engine explores a bit-identical prefix; parallel
			// reproducibility is covered by parallel_test.go.
			Budget: Budget{States: 5000, Workers: 1},
			Seed:   7,
		})
		return s.Run(twoNodeStart())
	}
	a, b := run(), run()
	if a.StatesExplored != b.StatesExplored || len(a.Violations) != len(b.Violations) {
		t.Fatalf("nondeterministic search: %d/%d states, %d/%d violations",
			a.StatesExplored, b.StatesExplored, len(a.Violations), len(b.Violations))
	}
	if len(a.Violations) > 0 && a.Violations[0].StateHash != b.Violations[0].StateHash {
		t.Fatal("violation hashes differ across runs")
	}
}

func TestReplayReproducesViolation(t *testing.T) {
	cfg := Config{
		Props:   poisonAt(3),
		Factory: newToy,
		Mode:    Consequence,
		Budget:  Budget{States: 10000},
	}
	s := NewSearch(cfg)
	res := s.Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("setup: no violation found")
	}
	// Replaying the discovered path from the same start state must
	// reproduce the violation.
	violated := NewSearch(cfg).Replay(twoNodeStart(), res.Violations[0].Path)
	if len(violated) == 0 {
		t.Fatal("replay failed to reproduce the violation")
	}
	// Replaying from a state where the path is infeasible returns nil.
	empty := NewGState()
	empty.AddNode(1, newToy(1), nil)
	if got := NewSearch(cfg).Replay(empty, res.Violations[0].Path); got != nil {
		t.Fatalf("replay on infeasible state returned %v", got)
	}
}

func TestFilterBlocksViolation(t *testing.T) {
	cfg := Config{
		Props:   poisonAt(3),
		Factory: newToy,
		Mode:    Consequence,
		Budget:  Budget{States: 10000},
	}
	res := NewSearch(cfg).Run(twoNodeStart())
	if len(res.Violations) == 0 {
		t.Fatal("setup: no violation found")
	}
	// Derive the steering filter from the last event of the path and
	// re-run the search with it installed: with the poisoned delivery
	// blocked everywhere it matters, the violation should vanish.
	path := res.Violations[0].Path
	last := path[len(path)-1]
	f, ok := sm.FilterForEvent(last)
	if !ok {
		t.Fatalf("unfilterable final event %v", last.Describe())
	}
	cfg.Filters = []sm.Filter{f}
	res2 := NewSearch(cfg).Run(twoNodeStart())
	for _, v := range res2.Violations {
		// Any remaining violation must differ from the filtered one.
		if v.StateHash == res.Violations[0].StateHash {
			t.Fatal("filter did not block the violating transition")
		}
	}
}

func TestDummyNodeRedirection(t *testing.T) {
	// Node 1 knows peer 99, which has no checkpoint in the snapshot:
	// messages to it must be redirected to the dummy node (dropped and
	// counted), not crash or create phantom nodes.
	g := NewGState()
	a := newToy(1).(*toy)
	a.peers[99] = true
	g.AddNode(1, a, nil)
	g.AddMessage(99, 1, ping{N: 1}) // incoming from unknown node is fine
	s := NewSearch(Config{
		Props:   poisonAt(1000),
		Factory: newToy,
		Mode:    Consequence,
		Budget:  Budget{States: 1000},
	})
	res := s.Run(g)
	if res.DummyRedirects == 0 {
		t.Fatal("expected dummy-node redirects")
	}
	for _, id := range []sm.NodeID{99} {
		if g.Node(id) != nil {
			t.Fatal("phantom node materialised")
		}
	}
}

func TestStartStateNotMutated(t *testing.T) {
	g := twoNodeStart()
	before := g.Hash()
	s := NewSearch(Config{
		Props:   poisonAt(3),
		Factory: newToy,
		Mode:    Exhaustive,
		Budget:  Budget{States: 2000},
	})
	s.Run(g)
	if g.Hash() != before {
		t.Fatal("search mutated the start state")
	}
}

func TestHashMsgOrderSemantics(t *testing.T) {
	// Order across distinct (from,to,type) queues is bookkeeping: the
	// fingerprint must not depend on it.
	g1 := NewGState()
	g1.AddNode(1, newToy(1), nil)
	g1.AddNode(2, newToy(2), nil)
	g1.AddMessage(1, 2, ping{N: 1})
	g1.AddMessage(2, 1, ping{N: 2})
	g2 := NewGState()
	g2.AddNode(1, newToy(1), nil)
	g2.AddNode(2, newToy(2), nil)
	g2.AddMessage(2, 1, ping{N: 2})
	g2.AddMessage(1, 2, ping{N: 1})
	if g1.Hash() != g2.Hash() {
		t.Fatal("cross-queue in-flight order leaked into the fingerprint")
	}
	// Order within one queue decides which message the FIFO delivery rule
	// hands over next, so it is part of the state: swapped queue contents
	// must not collide (hash-equal must imply successor-equal).
	q1 := NewGState()
	q1.AddNode(1, newToy(1), nil)
	q1.AddMessage(1, 1, ping{N: 1})
	q1.AddMessage(1, 1, ping{N: 2})
	q2 := NewGState()
	q2.AddNode(1, newToy(1), nil)
	q2.AddMessage(1, 1, ping{N: 2})
	q2.AddMessage(1, 1, ping{N: 1})
	if q1.Hash() == q2.Hash() {
		t.Fatal("same-queue reordering collided: FIFO head not captured")
	}
	// The fingerprint must still distinguish true multisets: two copies of
	// the same message are not one copy.
	g3 := NewGState()
	g3.AddNode(1, newToy(1), nil)
	g3.AddMessage(1, 1, ping{N: 1})
	g3.AddMessage(1, 1, ping{N: 1})
	if g3.Hash() == q1.Hash() {
		t.Fatal("duplicate message collapsed: multiset became a set")
	}
	for _, g := range []*GState{g1, g2, g3, q1, q2} {
		if g.Hash() != g.FullHash() {
			t.Fatal("incremental hash disagrees with from-scratch oracle")
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := NewSearch(Config{
		Props:   poisonAt(1000),
		Factory: newToy,
		Mode:    Consequence,
		Budget:  Budget{States: 100000, Depth: 5},
	})
	res := s.Run(twoNodeStart())
	if res.PeakMemoryBytes <= 0 || res.PerStateBytes <= 0 {
		t.Fatalf("memory accounting missing: peak=%d per-state=%.1f",
			res.PeakMemoryBytes, res.PerStateBytes)
	}
}

func TestMaxViolationsStopsEarly(t *testing.T) {
	s := NewSearch(Config{
		Props:   poisonAt(2),
		Factory: newToy,
		Mode:    Exhaustive,
		Budget:  Budget{States: 100000, Violations: 1},
	})
	res := s.Run(twoNodeStart())
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want exactly 1", len(res.Violations))
	}
}
