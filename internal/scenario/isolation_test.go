package scenario_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sm"
)

// TestCloneIsolationMatrix is the oracle for "a handler writes only its own
// clone". A state's Hash() was computed when the state was built; FullHash()
// re-encodes every service from scratch. A handler that writes through its
// clone into storage the parent (or a sibling) still owns — a slice Clone
// shared instead of copying, an arena two states alias — changes what the
// owner encodes to and leaves its fingerprint behind, so the two part.
//
// For every registered scenario (three nodes, a reset allowed for each; with
// its seeded bugs and with them fixed, because a bug can be exactly what keeps
// a short run away from the code that writes — unfixed Bullet′ never
// advertises a block), a few seeded random walks that prefer new states, deep
// enough to reach what a breadth-first search of the same size never does (a
// block requested, sent and acknowledged, a request ageing out). At each step
// every enabled event of the current state is applied to it — by `workers`
// goroutines at once, which is how the engine treats a held state and what
// lets -race see the write itself — and then the state and each successor
// must hash the same both ways; at the end so must every state the walks
// built, long after its descendants ran.
func TestCloneIsolationMatrix(t *testing.T) {
	for _, name := range scenario.Names() {
		for _, fixed := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/fixed=%t/workers=%d", name, fixed, workers), func(t *testing.T) {
					_, all := isolationWalks(t, name, fixed, workers)
					for i, g := range all {
						checkHash(t, g, fmt.Sprintf("state %d of %d, after the walks", i, len(all)))
					}
					t.Logf("%d states", len(all))
				})
			}
		}
	}
}

// checkHash fails the test when g's incremental fingerprint is not the one
// re-encoded from scratch.
func checkHash(t *testing.T, g *mc.GState, when string) {
	t.Helper()
	if got, want := g.Hash(), g.FullHash(); got != want {
		t.Fatalf("%s: Hash %#x, re-encoded from scratch %#x: a handler wrote state it did not own", when, got, want)
	}
}

// isolationWalks runs TestCloneIsolationMatrix's walks over scenario name,
// applying each step's events with workers goroutines and checking the state
// and every successor on the way, and returns the search and every state the
// walks built (at least 100, or the test fails).
func isolationWalks(t *testing.T, name string, fixed bool, workers int) (*mc.Search, []*mc.GState) {
	t.Helper()
	const walks, steps = 8, 40
	start, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3, Fixed: fixed})
	if err != nil {
		t.Fatal(err)
	}
	// A node of a start state has run nothing, Init included, until
	// it is reset: one reset each lets every node come alive.
	cfg.Seed, cfg.ExploreResets, cfg.MaxResetsPerPath = 42, true, 3
	s := mc.NewSearch(cfg)
	all := []*mc.GState{start}
	for walk := 0; walk < walks; walk++ {
		rng := sm.NewRand(int64(walk))
		g, seen := start, map[uint64]bool{start.Hash(): true}
		for step := 0; step < steps; step++ {
			events, internal := s.EnabledEvents(g)
			for _, id := range g.Nodes() {
				events = append(events, internal[id]...)
			}
			succ := make([]*mc.GState, len(events))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < len(events); i += workers {
						succ[i] = s.ApplyEvent(g, events[i])
					}
				}()
			}
			wg.Wait()
			checkHash(t, g, fmt.Sprintf("walk %d step %d, after its %d enabled events ran", walk, step, len(events)))
			var built, fresh []*mc.GState
			for i, c := range succ {
				if c != nil {
					checkHash(t, c, fmt.Sprintf("walk %d step %d, successor by %q", walk, step, events[i].Describe()))
					if built = append(built, c); !seen[c.Hash()] {
						fresh = append(fresh, c)
					}
				}
			}
			if len(built) == 0 {
				break
			}
			all = append(all, built...)
			// Timers are always enabled and mostly re-arm themselves
			// into the state they fired in: a walk goes somewhere
			// only if it prefers states it has not been in.
			if len(fresh) > 0 {
				built = fresh
			}
			g = built[rng.Intn(len(built))]
			seen[g.Hash()] = true
		}
	}
	if len(all) < 100 {
		t.Fatalf("the walks built %d states: too few to show anything", len(all))
	}
	return s, all
}

// TestCloneIntoDirtySpare is the oracle for "a reused spare keeps nothing of
// its old contents". The checker runs every handler on a spare service that
// CloneInto refills from the executed node's; a map entry or slice tail the
// refill leaves behind would be read by the handler and hashed into the
// successor. The hash oracles cannot see that — the incremental and the full
// fingerprint both encode the same wrong service — so this test compares
// encodings directly.
//
// For every registered scenario, buggy and fixed, the services of the states
// TestCloneIsolationMatrix's walks build are paired up: each service a with
// its neighbour in the harvest and with the largest one (a small state cloned
// into a spare that held a large one). The spare is made from b and dirtied
// by one of b's enabled handlers; then a.CloneInto(spare) must reuse the
// spare, have a's type, encode exactly as a and a.Clone() do, and share
// nothing with a: a handler run on it leaves a's encoding unchanged.
func TestCloneIntoDirtySpare(t *testing.T) {
	type node struct {
		id     sm.NodeID
		svc    sm.Service
		timers sm.TimerSet
		events []sm.Event // the events at id that run a handler
	}
	encode := func(svc sm.Service) string {
		e := sm.NewEncoder()
		svc.EncodeState(e)
		return string(e.Bytes())
	}
	var fx sm.Effects
	run := func(n node, svc sm.Service, pick int) {
		ev := n.events[pick%len(n.events)]
		fx.Begin(n.id, n.timers, sm.NewRand(int64(pick)))
		sm.Deliver(svc, &fx, ev)
	}
	for _, name := range scenario.Names() {
		for _, fixed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fixed=%t", name, fixed), func(t *testing.T) {
				s, all := isolationWalks(t, name, fixed, 1)
				var nodes []node
				largest := 0
				for _, g := range all {
					network, internal := s.EnabledEvents(g)
					for _, id := range g.Nodes() {
						n := node{id: id, svc: g.Node(id).Svc, timers: g.Node(id).Timers}
						for _, ev := range append(network, internal[id]...) {
							// A reset or a drop runs no handler.
							if ev.Kind != 'R' && ev.Kind != 'D' && ev.Node == id {
								n.events = append(n.events, ev)
							}
						}
						if len(n.events) == 0 {
							continue
						}
						if len(nodes) > 0 && len(encode(n.svc)) > len(encode(nodes[largest].svc)) {
							largest = len(nodes)
						}
						nodes = append(nodes, n)
					}
				}
				if len(nodes) < 100 {
					t.Fatalf("%d node states with an enabled handler: too few to show anything", len(nodes))
				}
				checks := 0
				for i, a := range nodes {
					want := encode(a.svc)
					for _, b := range []node{nodes[(i+1)%len(nodes)], nodes[largest]} {
						spare := b.svc.Clone()
						run(b, spare, i)
						got := a.svc.CloneInto(spare)
						if reflect.TypeOf(got) != reflect.TypeOf(a.svc) {
							t.Fatalf("node state %d: CloneInto returned a %T, want a %T", i, got, a.svc)
						}
						if reflect.TypeOf(spare) == reflect.TypeOf(a.svc) && got != spare {
							t.Fatalf("node state %d: CloneInto allocated instead of reusing a spare of its own type", i)
						}
						if encode(got) != want || encode(a.svc.Clone()) != want {
							t.Fatalf("node state %d cloned into a spare that held node %d's: the copy encodes differently from the original: the spare's old contents survived", i, b.id)
						}
						run(a, got, i)
						if encode(a.svc) != want {
							t.Fatalf("node state %d: a handler run on its copy changed it: the copy shares state with it", i)
						}
						checks++
					}
				}
				t.Logf("%d node states, %d spares refilled", len(nodes), checks)
			})
		}
	}
}
