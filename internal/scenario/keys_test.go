package scenario_test

import (
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sm"
)

// TestEnabledKeysAreDistinct: among the events enabled in one state every
// key is distinct — the invariant sleep sets, path replay and the enumeration
// order rest on. Every registered scenario is walked breadth-first from its
// initial state with resets and conn breaks forced on, so a transport error
// is enumerated both ways: as an RST in flight and as a spontaneous break.
func TestEnabledKeysAreDistinct(t *testing.T) {
	const depth, maxStates = 5, 1500
scenarios:
	for _, name := range scenario.Names() {
		g, cfg, err := scenario.InitialState(name, scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.ExploreResets, cfg.ExploreConnBreaks = true, true
		s := mc.NewSearch(cfg)
		seen := map[uint64]bool{g.Hash(): true}
		level := []*mc.GState{g}
		for d := 0; d < depth && len(seen) < maxStates; d++ {
			var next []*mc.GState
			for _, g := range level {
				network, internal := s.EnabledEvents(g)
				events := network
				for _, id := range g.Nodes() {
					events = append(events, internal[id]...)
				}
				keys := make(map[sm.EventKey]bool, len(events))
				for _, ev := range events {
					if keys[ev.EventKey] {
						t.Errorf("%s: %q is enumerated twice in one state", name, ev.Describe())
						continue scenarios
					}
					keys[ev.EventKey] = true
					if succ := s.ApplyEvent(g, ev); succ != nil && !seen[succ.Hash()] && len(seen) < maxStates {
						seen[succ.Hash()] = true
						next = append(next, succ)
					}
				}
			}
			level = next
		}
		t.Logf("%s: %d states walked", name, len(seen))
	}
}
