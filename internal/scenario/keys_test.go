package scenario_test

import (
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sm"
)

// walkEnabled walks every registered scenario breadth-first from its initial
// state with resets and conn breaks forced on, so a transport error is
// enumerated both ways: as an RST in flight and as a spontaneous break. It
// hands visit the events enabled in each state it reaches; visit returns
// false to end that scenario's walk.
func walkEnabled(t *testing.T, visit func(name string, events []sm.Event) bool) {
	t.Helper()
	const depth, maxStates = 5, 1500
	for _, name := range scenario.Names() {
		g, cfg, err := scenario.InitialState(name, scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.ExploreResets, cfg.ExploreConnBreaks = true, true
		s := mc.NewSearch(cfg)
		seen := map[uint64]bool{g.Hash(): true}
		level := []*mc.GState{g}
	walk:
		for d := 0; d < depth && len(seen) < maxStates; d++ {
			var next []*mc.GState
			for _, g := range level {
				network, internal := s.EnabledEvents(g)
				events := network
				for _, id := range g.Nodes() {
					events = append(events, internal[id]...)
				}
				if !visit(name, events) {
					break walk
				}
				for _, ev := range events {
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

// TestEnabledKeysAreDistinct: among the events enabled in one state every
// key is distinct — the invariant sleep sets, path replay and the enumeration
// order rest on.
func TestEnabledKeysAreDistinct(t *testing.T) {
	walkEnabled(t, func(name string, events []sm.Event) bool {
		keys := make(map[sm.EventKey]bool, len(events))
		for _, ev := range events {
			if keys[ev.EventKey] {
				t.Errorf("%s: %q is enumerated twice in one state", name, ev.Describe())
				return false
			}
			keys[ev.EventKey] = true
		}
		return true
	})
}

// TestFilterBlocksItsHandler pins the steering filter rule (paper §3.3: a
// filter "temporarily blocks the invocation of a state-machine handler"):
// the filter derived from an enabled event blocks exactly the enabled events
// of the same kind at the same node from the same sender with the same name
// — whatever their payload or app-call argument, and whether or not it breaks
// the connection — while a reset, a transport error or an RST drop is an
// environment fault that no filter names.
func TestFilterBlocksItsHandler(t *testing.T) {
	walkEnabled(t, func(name string, events []sm.Event) bool {
		for _, e := range events {
			f, ok := sm.FilterForEvent(e)
			if filterable := e.Kind == 'M' || e.Kind == 'T' || e.Kind == 'A'; ok != filterable {
				t.Errorf("%s: FilterForEvent(%q) ok=%v", name, e.Describe(), ok)
				return false
			}
			if !ok {
				continue
			}
			other := f
			other.BreakConn = !f.BreakConn
			for _, x := range events {
				same := x.Kind == e.Kind && x.Node == e.Node && x.From == e.From && x.Name == e.Name
				variant := x
				variant.Msg, variant.Call, variant.Arg = nil, nil, x.Arg+1
				for _, y := range []sm.Event{x, variant} {
					if f.Matches(y) != same || other.Matches(y) != same {
						t.Errorf("%s: the filter for %q matches %q (arg %d): %v, %v; want %v",
							name, e.Describe(), y.Describe(), y.Arg, f.Matches(y), other.Matches(y), same)
						return false
					}
				}
			}
		}
		return true
	})
}
