package scenario_test

import (
	"fmt"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// claimedDigest runs one small depth-bounded single-worker search of a
// registered scenario (three nodes, seed 42, the scenario's own fault model
// and reduction) and renders what it claimed: the number of claimed states,
// the wrapping sum of their fingerprints, the distinct local states, the
// transitions taken and the transitions pruned. warm moves the start state
// off the initial one first — every node's first application call in node
// order, then four first-enabled deliveries — so that timers are pending and
// messages in flight, the shape a live round predicts from.
func claimedDigest(t *testing.T, name string, mode mc.Mode, depth int, warm bool) string {
	t.Helper()
	g, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = mode
	cfg.Budget.Depth = depth
	cfg.Budget.Workers = 1
	cfg.Seed = 42
	cfg.RecordClaimedStates = true
	s := mc.NewSearch(cfg)
	if warm {
		_, internal := s.EnabledEvents(g)
		for _, id := range g.Nodes() {
			for _, ev := range internal[id] {
				if ev.Kind == 'A' {
					if next := s.ApplyEvent(g, ev); next != nil {
						g = next
					}
					break
				}
			}
		}
		for i := 0; i < 4; i++ {
			network, _ := s.EnabledEvents(g)
			if len(network) == 0 {
				break
			}
			if next := s.ApplyEvent(g, network[0]); next != nil {
				g = next
			}
		}
	}
	res := s.Run(g)
	var sum uint64
	for _, h := range res.ClaimedStates {
		sum += h
	}
	return fmt.Sprintf("claimed=%d sum=%#016x locals=%d transitions=%d pruned=%d",
		len(res.ClaimedStates), sum, res.DistinctLocalStates, res.Transitions, res.TransitionsPruned)
}

// goldenDigests are claimedDigest's outputs — exhaustive to depth 5,
// consequence to depth 8, consequence to depth 6 from the warmed state —
// recorded on commit 9106491, the last one whose node state kept its timers
// in a map. They are constants on purpose: a change to the state
// representation claims to leave every fingerprint, the enumeration order and
// the pruning counts byte for byte where they were, and a digest re-derived
// by the changed code could only ever agree with itself. A change that means
// to move them (a new encoding, a new transition) replaces the table with
// what the failing test prints and says so. Chord's warm consequence run
// prunes 984, not 996: a conn break that an RST in flight already enables is
// no longer enumerated a second time, so the consequence rule counts twelve
// fewer pruned actions of claimed (node, local state)s; it claims the same.
var goldenDigests = map[string][3]string{
	"bulletprime": {
		"claimed=37 sum=0xff1f9c76fb6cab2e locals=12 transitions=78 pruned=6",
		"claimed=22 sum=0xd726bf4debbb7e77 locals=18 transitions=42 pruned=36",
		"claimed=19 sum=0x7832daf7371ad50a locals=15 transitions=30 pruned=27",
	},
	"chord": {
		"claimed=134 sum=0xa43bec35058f1fcb locals=12 transitions=408 pruned=122",
		"claimed=9 sum=0xc0a3f39c3b0e7cf8 locals=6 transitions=18 pruned=43",
		"claimed=175 sum=0x8e0b51524d610398 locals=24 transitions=222 pruned=984",
	},
	"gcounter": {
		"claimed=74 sum=0x903bb4e5f28c43d7 locals=20 transitions=79 pruned=52",
		"claimed=63 sum=0x9f7fbf9049dc2be0 locals=23 transitions=73 pruned=58",
		"claimed=5 sum=0x28f0679c655193d3 locals=6 transitions=4 pruned=1",
	},
	"lwwmap": {
		"claimed=27 sum=0x8fa7f8986423cac5 locals=17 transitions=27 pruned=14",
		"claimed=44 sum=0x66e617a8f6a3baa3 locals=22 transitions=50 pruned=33",
		"claimed=25 sum=0xb7b5b3fe44aba402 locals=17 transitions=28 pruned=14",
	},
	"orset": {
		"claimed=27 sum=0x459ca1fba3e508ab locals=17 transitions=27 pruned=14",
		"claimed=45 sum=0x95a385a1e2f75d17 locals=21 transitions=50 pruned=33",
		"claimed=27 sum=0x59f08e8ef39c3123 locals=16 transitions=28 pruned=15",
	},
	"paxos": {
		"claimed=2537 sum=0x8eadf2c4ab597c4e locals=117 transitions=3666 pruned=2241",
		"claimed=7399 sum=0x86ada7114d5d5a57 locals=522 transitions=9919 pruned=14576",
		"claimed=14485 sum=0x503e85bbb69154e1 locals=321 transitions=21166 pruned=29079",
	},
	"randtree": {
		"claimed=139 sum=0xfa66a65b561d71cf locals=11 transitions=393 pruned=106",
		"claimed=9 sum=0x698a47554b0b4593 locals=6 transitions=17 pruned=43",
		"claimed=109 sum=0x9e4062936cab7d17 locals=15 transitions=129 pruned=253",
	},
}

// TestGoldenClaimedDigests pins every registered scenario's small searches
// to the recorded digests.
func TestGoldenClaimedDigests(t *testing.T) {
	for _, name := range scenario.Names() {
		want, recorded := goldenDigests[name]
		got := [3]string{
			claimedDigest(t, name, mc.Exhaustive, 5, false),
			claimedDigest(t, name, mc.Consequence, 8, false),
			claimedDigest(t, name, mc.Consequence, 6, true),
		}
		if !recorded {
			t.Errorf("scenario %s has no recorded digests; it produces\n\t%q: {\n\t\t%q,\n\t\t%q,\n\t\t%q,\n\t},", name, name, got[0], got[1], got[2])
			continue
		}
		for i, what := range []string{"exhaustive depth 5", "consequence depth 8", "warm consequence depth 6"} {
			if got[i] != want[i] {
				t.Errorf("%s, %s:\n got %s\nwant %s", name, what, got[i], want[i])
			}
		}
	}
}
