package mc_test

import (
	"fmt"
	"slices"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// TestMemoOracle is the handler-memo oracle, in the implementation-against-
// reference style: over every registered scenario, buggy and fixed, with
// resets and conn breaks forced on, a bounded breadth-first search harvests
// states through ApplyEvent, whose pooled scratch never memoizes. One
// Expander then applies every enabled handler event (delivery, timer, app
// call, transport error) of every harvested state through its memo, warm with
// the effects of every event applied before, and each successor must equal
// ApplyEvent's: the same Hash, FullHash and EncodedSize. A memo key that
// leaves out something a handler reads, or a service encoding that leaves
// out a field a handler reads, lets a hit install an effect computed in
// another state, and the fingerprints part. A successor built on a hit hashes
// each memoized send from the prefix the memo keeps with it, folding in only
// the item's queue position, so its incremental Hash must also equal its own
// from-scratch FullHash. A hit shares the heap item a memoized send last
// became when it sits at the queue position the send takes, so every item of
// every successor must also equal, field for field, the item ApplyEvent builds
// at the same index: endpoints, queue position, component hash, footprint and
// message encoding. Every scenario must hit the memo, some hit must send, and
// some sent item must be shared — the very item an earlier successor holds —
// so the oracle cannot pass without comparing anything.
func TestMemoOracle(t *testing.T) {
	const maxStates, maxDepth = 1000, 10
	for _, name := range scenario.Names() {
		for _, fixed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fixed=%t", name, fixed), func(t *testing.T) {
				start, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3, Fixed: fixed})
				if err != nil {
					t.Fatal(err)
				}
				// A start state's nodes run nothing, Init included, until
				// they are reset.
				cfg.Seed, cfg.ExploreResets, cfg.ExploreConnBreaks, cfg.MaxResetsPerPath = 42, true, true, 3
				s := mc.NewSearch(cfg)
				states := harvestBFS(s, start, maxStates, maxDepth)
				x := s.NewExpander()
				applied, sending, shared := 0, 0, 0
				var events []sm.Event
				// Every item a successor gained, keyed by address: an
				// item of a later successor found here is shared. The
				// keys keep the items alive, so no address is reused.
				gained := map[*mc.InFlight]bool{}
				for i, g := range states {
					events = events[:0]
					x.Events(g, func(ev sm.Event) { events = append(events, ev) })
					for _, ev := range events {
						if c := ev.Class(); c == "reset" || c == "drop" {
							continue // no handler runs (a reset's Init is not memoized)
						}
						runs := x.HandlerRuns()
						got, want := s.ApplyIn(x, g, ev), s.ApplyEvent(g, ev)
						hit := x.HandlerRuns() == runs
						if (got == nil) != (want == nil) {
							t.Fatalf("state %d, %q: memo successor %v, reference %v", i, ev.Describe(), got != nil, want != nil)
						}
						if want == nil {
							continue
						}
						applied++
						if got.Hash() != want.Hash() || got.FullHash() != want.FullHash() || got.EncodedSize() != want.EncodedSize() {
							t.Fatalf("state %d, %q: memo successor hash %#x full %#x size %d, reference %#x full %#x size %d",
								i, ev.Describe(), got.Hash(), got.FullHash(), got.EncodedSize(), want.Hash(), want.FullHash(), want.EncodedSize())
						}
						if hit && got.Hash() != got.FullHash() {
							t.Fatalf("state %d, %q: memo hit's successor hashes %#x, from scratch %#x", i, ev.Describe(), got.Hash(), got.FullHash())
						}
						if hit && got.InFlightCount() > g.InFlightCount() {
							sending++
						}
						inherited, _ := g.Items()
						items, fields := got.Items()
						_, wantFields := want.Items()
						for j, m := range items {
							if fields[j] != wantFields[j] {
								t.Fatalf("state %d, %q: item %d is %+v, the reference's %+v", i, ev.Describe(), j, fields[j], wantFields[j])
							}
							if slices.Contains(inherited, m) {
								continue
							}
							if gained[m] {
								shared++
							}
							gained[m] = true
						}
					}
				}
				hits := applied - x.HandlerRuns()
				t.Logf("%d states, %d handler events, %d memo hits, %d of them sending, %d shared items", len(states), applied, hits, sending, shared)
				if hits <= 0 || sending == 0 || shared == 0 {
					t.Fatalf("%d handler events over %d states, %d memo hits, %d sending, %d shared items: the oracle compared nothing", applied, len(states), hits, sending, shared)
				}
			})
		}
	}
}

// harvestBFS returns the distinct states a breadth-first search from start
// reaches through ApplyEvent, up to max states and depth levels, in the
// order it reaches them.
func harvestBFS(s *mc.Search, start *mc.GState, max, depth int) []*mc.GState {
	seen := map[uint64]bool{start.Hash(): true}
	all, level := []*mc.GState{start}, []*mc.GState{start}
	for d := 0; d < depth && len(level) > 0; d++ {
		var next []*mc.GState
		for _, g := range level {
			network, internal := s.EnabledEvents(g)
			events := network
			for _, id := range g.Nodes() {
				events = append(events, internal[id]...)
			}
			for _, ev := range events {
				c := s.ApplyEvent(g, ev)
				if c == nil || seen[c.Hash()] {
					continue
				}
				if len(all) == max {
					return all
				}
				seen[c.Hash()] = true
				all, next = append(all, c), append(next, c)
			}
		}
		level = next
	}
	return all
}
