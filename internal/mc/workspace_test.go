package mc_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	"crystalball/internal/services/chord"
	"crystalball/internal/sm"
)

// TestWorkspaceOracle is the cold ≡ warm oracle: a sequence of searches runs
// through one workspace, and each must return what the same search returns
// in a fresh one (Search.Run), field by field but for Elapsed — the claimed
// and local state sets, the violations with their paths, transitions,
// pruned, unbuilt and handler counts, and the accounted peak memory, which
// must therefore count what a search uses and not the capacity it
// inherited. The sequence covers every registered scenario, buggy and fixed,
// and between two consecutive searches it changes the mode, the budget, the
// filters, the seed, the worker count or the scenario: a search capped by
// the state budget, one that stops at its violation quota with states still
// queued, a filtered one and a two-worker one. At two workers which worker's
// memo meets a state first is scheduling, so Unbuilt and HandlerRuns are
// compared at one worker only (CheckWindowIndependence's rule).
func TestWorkspaceOracle(t *testing.T) {
	type search struct {
		name string
		edit func(c *mc.Config, filter sm.Filter)
	}
	sequence := []search{
		{"exhaustive", func(c *mc.Config, _ sm.Filter) {
			c.Mode, c.Budget = mc.Exhaustive, mc.Budget{Depth: 5, Workers: 1}
		}},
		{"consequence capped by states", func(c *mc.Config, _ sm.Filter) {
			c.Mode, c.Budget = mc.Consequence, mc.Budget{States: 150, Workers: 1}
		}},
		{"consequence filtered, seed 7", func(c *mc.Config, f sm.Filter) {
			c.Mode, c.Budget, c.Seed, c.Filters = mc.Consequence, mc.Budget{Depth: 7, Workers: 1}, 7, []sm.Filter{f}
		}},
		{"exhaustive at two workers, seed 7", func(c *mc.Config, _ sm.Filter) {
			c.Mode, c.Budget, c.Seed = mc.Exhaustive, mc.Budget{Depth: 5, Workers: 2}, 7
		}},
		{"exhaustive stopped at one violation", func(c *mc.Config, _ sm.Filter) {
			c.Mode, c.Budget, c.Seed = mc.Exhaustive, mc.Budget{Depth: 6, Violations: 1, Workers: 1}, 3
		}},
	}
	ws := mc.NewWorkspace()
	var capped, queued, violations, hits int
	for _, name := range scenario.Names() {
		for _, fixed := range []bool{false, true} {
			start, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3, Fixed: fixed})
			if err != nil {
				t.Fatal(err)
			}
			// A start state's nodes run nothing, Init included, until they
			// are reset.
			cfg.ExploreResets, cfg.MaxResetsPerPath = true, 2
			cfg.RecordClaimedStates, cfg.RecordLocalStates = true, true
			filter := firstFilter(t, cfg, start)
			for _, step := range sequence {
				c := cfg
				step.edit(&c, filter)
				warm := mc.NewSearch(c).RunIn(ws, start)
				cold := mc.NewSearch(c).Run(start)
				where := fmt.Sprintf("%s fixed=%t, %s", name, fixed, step.name)
				if c.Budget.Workers > 1 {
					warm.Unbuilt, warm.HandlerRuns = cold.Unbuilt, cold.HandlerRuns
				}
				warm.Elapsed = cold.Elapsed
				if !reflect.DeepEqual(warm, cold) {
					t.Fatalf("%s: the warm workspace's result differs from a fresh one's\nwarm: %s\ncold: %s", where, summary(warm), summary(cold))
				}
				if cold.StatesExplored < 2 {
					t.Fatalf("%s: explored %d states: the step compares nothing", where, cold.StatesExplored)
				}
				switch {
				case cold.StopReason == "states":
					capped++
				case cold.StopReason == "violations" && len(cold.ClaimedStates) > cold.StatesExplored:
					queued++
				}
				violations += len(cold.Violations)
				hits += cold.Transitions - cold.HandlerRuns
			}
		}
	}
	t.Logf("%d searches capped by states, %d stopped with states queued, %d violations, %d transitions without a handler run", capped, queued, violations, hits)
	if capped == 0 || queued == 0 || violations == 0 || hits <= 0 {
		t.Fatal("the sequence misses a case it is meant to cover")
	}
}

// firstFilter returns a filter for the first filterable event on a
// one-violation exhaustive search's path from start, or, when that search
// finds none, for the first filterable event enabled after a reset.
func firstFilter(t *testing.T, cfg mc.Config, start *mc.GState) sm.Filter {
	t.Helper()
	cfg.Mode, cfg.Budget = mc.Exhaustive, mc.Budget{Depth: 5, Violations: 1, Workers: 1}
	s := mc.NewSearch(cfg)
	res := s.Run(start)
	for _, v := range res.Violations {
		for _, ev := range v.Path {
			if f, ok := sm.FilterForEvent(ev); ok {
				return f
			}
		}
	}
	g := s.ApplyEvent(start, sm.Reset(start.Nodes()[0]))
	network, internal := s.EnabledEvents(g)
	for _, ev := range append(network, internal[g.Nodes()[0]]...) {
		if f, ok := sm.FilterForEvent(ev); ok {
			return f
		}
	}
	t.Fatal("no filterable event")
	return sm.Filter{}
}

// summary renders the counts of a result.
func summary(r *mc.Result) string {
	return fmt.Sprintf("states=%d transitions=%d depth=%d unbuilt=%d handlers=%d pruned=%d mem=%d claimed=%d locals=%d violations=%d stop=%s",
		r.StatesExplored, r.Transitions, r.MaxDepthReached, r.Unbuilt, r.HandlerRuns, r.TransitionsPruned, r.PeakMemoryBytes,
		len(r.ClaimedStates), len(r.LocalStates), len(r.Violations), r.StopReason)
}

// TestWarmRoundCostsLessThanCold: a live deployment runs its controllers'
// rounds in one workspace, so after the first round an engine is built from
// storage the rounds before it left. Twenty rounds of the 300-state
// consequence round of TestSmallRoundCostsNoMoreThanBefore, through one warm
// workspace, allocate per round at most warmBytes: what the round's
// published successors and results cost, without the engine's set-up.
// Measured: 75,273 B per warm round against 166,290 B per cold one
// (Search.Run, a fresh workspace per round), so a round that bypasses the
// workspace fails here.
func TestWarmRoundCostsLessThanCold(t *testing.T) {
	skipUnlessPooling(t)
	factory, start := chordFigure10Start()
	cfg := mc.Config{
		Props: props.Set{chord.PropPredSelfImpliesSuccSelf}, Factory: factory, Mode: mc.Consequence,
		ExploreResets: true, ExploreConnBreaks: true, Reduce: true,
		Budget: mc.Budget{States: 300, Workers: 1},
	}
	perRound := func(run func() *mc.Result) float64 {
		run() // warm the workspace and the scratch pool
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res *mc.Result
		for i := 0; i < rounds; i++ {
			res = run()
		}
		runtime.ReadMemStats(&after)
		if res.StatesExplored != 300 {
			t.Fatalf("round explored %d states, want 300", res.StatesExplored)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	ws := mc.NewWorkspace()
	warm := perRound(func() *mc.Result { return mc.NewSearch(cfg).RunIn(ws, start) })
	cold := perRound(func() *mc.Result { return mc.NewSearch(cfg).Run(start) })
	t.Logf("%.0f B per warm round, %.0f B per cold round", warm, cold)
	const warmBytes = 85000
	if warm > warmBytes {
		t.Fatalf("a warm 300-state round allocates %.0f B, want <= %d (a cold one: %.0f B)", warm, warmBytes, cold)
	}
}

// TestWorkspaceRetainsNothing: a search runs in a workspace, then its caller
// drops the start state and the result, and the collector must reclaim every
// service and in-flight message the search built or was given — so every
// GState and NodeState holding them too — while the workspace lives on. It
// runs three searches: one the state budget caps, one its violation quota
// stops with states still queued, and one that runs to its depth bound. The
// frontier's held entries, the memo's effects, the scratch's successor
// buffers and its spare service would each keep some of them.
func TestWorkspaceRetainsNothing(t *testing.T) {
	ws := mc.NewWorkspace()
	for _, b := range []mc.Budget{
		{States: 40, Workers: 1},
		{Violations: 1, Workers: 1},
		{Depth: 6, Workers: 1},
	} {
		func() {
			start := mc.NewGState()
			for id := sm.NodeID(1); id <= 3; id++ {
				start.AddNode(id, newTracked(id), sm.TimerSet{"tick"})
			}
			cfg := mc.Config{
				Props: props.Set{{Name: "CountBelowTwo", Check: func(v *props.View) bool {
					for _, nv := range v.Nodes() {
						if nv.Svc.(*tracked).n >= 2 {
							return false
						}
					}
					return true
				}}},
				Factory: func(id sm.NodeID) sm.Service { return newTracked(id) },
				Mode:    mc.Exhaustive, ExploreResets: true, Reduce: true, Budget: b,
				RecordClaimedStates: true,
			}
			res := mc.NewSearch(cfg).RunIn(ws, start)
			t.Logf("%+v: %d states, %d claimed, %d transitions, %d violations, stop=%s", b, res.StatesExplored, len(res.ClaimedStates), res.Transitions, len(res.Violations), res.StopReason)
			if res.HandlerRuns == 0 || res.HandlerRuns == res.Transitions || len(res.Violations) == 0 {
				t.Fatalf("%+v: %d handlers for %d transitions, %d violations: the search memoized or reported nothing", b, res.HandlerRuns, res.Transitions, len(res.Violations))
			}
			if b.Violations > 0 && len(res.ClaimedStates) <= res.StatesExplored {
				t.Fatalf("%+v: stopped with nothing queued", b)
			}
		}()
		// A finalizer runs after the cycle that found its object
		// unreachable; the scratch pool the start state was built through
		// empties over two.
		for i := 0; i < 100 && liveTracked.Load() > 0; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if n := liveTracked.Load(); n != 0 {
			t.Fatalf("%+v: %d services and messages of a finished search are still reachable", b, n)
		}
	}
	runtime.KeepAlive(ws)
}

// liveTracked counts the tracked services and messages not yet finalized.
var liveTracked atomic.Int64

// track counts p until the collector finds it unreachable.
func track[T any](p *T) *T {
	liveTracked.Add(1)
	runtime.SetFinalizer(p, func(*T) { liveTracked.Add(-1) })
	return p
}

// tracked is a service whose every instance, and every message it sends, is
// counted while it is reachable: a node counts its "tick" timer's firings up
// to four and gossips each count to the other nodes, which adopt a larger
// one.
type tracked struct {
	self sm.NodeID
	n    int
}

type gossip struct{ n, pad int }

func (*gossip) MsgType() string           { return "Gossip" }
func (*gossip) Size() int                 { return 8 }
func (g *gossip) EncodeMsg(e *sm.Encoder) { e.Int(g.n) }

func newTracked(self sm.NodeID) *tracked { return track(&tracked{self: self}) }

func (s *tracked) Init(ctx sm.Context) { ctx.SetTimer("tick", sm.Second) }

func (s *tracked) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	s.n = max(s.n, msg.(*gossip).n)
}

func (s *tracked) HandleTimer(ctx sm.Context, _ sm.TimerID) {
	if s.n++; s.n < 4 {
		ctx.SetTimer("tick", sm.Second)
	}
	for _, to := range s.Neighbors() {
		ctx.Send(to, track(&gossip{n: s.n}))
	}
}

func (s *tracked) HandleApp(sm.Context, sm.AppCall)           {}
func (s *tracked) HandleTransportError(sm.Context, sm.NodeID) {}
func (s *tracked) Clone() sm.Service                          { return s.CloneInto(nil) }
func (s *tracked) EncodeState(e *sm.Encoder)                  { e.NodeID(s.self); e.Int(s.n) }
func (s *tracked) DecodeState(d *sm.Decoder) error            { s.self, s.n = d.NodeID(), d.Int(); return d.Err() }

func (s *tracked) Neighbors() []sm.NodeID {
	var out []sm.NodeID
	for id := sm.NodeID(1); id <= 3; id++ {
		if id != s.self {
			out = append(out, id)
		}
	}
	return out
}

func (s *tracked) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*tracked)
	if !ok {
		out = newTracked(s.self)
	}
	*out = *s
	return out
}
