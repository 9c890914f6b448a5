package scenario_test

import (
	"fmt"
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
	const walks, steps = 8, 40
	for _, name := range scenario.Names() {
		for _, fixed := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/fixed=%t/workers=%d", name, fixed, workers), func(t *testing.T) {
					start, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3, Fixed: fixed})
					if err != nil {
						t.Fatal(err)
					}
					// A node of a start state has run nothing, Init included, until
					// it is reset: one reset each lets every node come alive.
					cfg.Seed, cfg.ExploreResets, cfg.MaxResetsPerPath = 42, true, 3
					s := mc.NewSearch(cfg)
					check := func(g *mc.GState, when string) {
						t.Helper()
						if got, want := g.Hash(), g.FullHash(); got != want {
							t.Fatalf("%s: Hash %#x, re-encoded from scratch %#x: a handler wrote state it did not own", when, got, want)
						}
					}
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
							check(g, fmt.Sprintf("walk %d step %d, after its %d enabled events ran", walk, step, len(events)))
							var built, fresh []*mc.GState
							for i, c := range succ {
								if c != nil {
									check(c, fmt.Sprintf("walk %d step %d, successor by %q", walk, step, events[i].Describe()))
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
					for i, g := range all {
						check(g, fmt.Sprintf("state %d of %d, after the walks", i, len(all)))
					}
					if len(all) < 100 {
						t.Fatalf("the walks built %d states: too few to show anything", len(all))
					}
					t.Logf("%d states", len(all))
				})
			}
		}
	}
}
