// Real-service checker tests live in the external test package: the
// service packages register themselves with internal/scenario, which
// imports mc, so importing them from mc's internal test package would be
// an import cycle.
package mc_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/services/chord"
	"crystalball/internal/services/crdt"
	"crystalball/internal/services/paxos"
	"crystalball/internal/sm"
)

// distinctSignatures returns the sorted violation-signature set of a result
// (Result.Violations is already deduplicated by signature).
func distinctSignatures(res *mc.Result) []string {
	out := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		out = append(out, v.Signature())
	}
	sort.Strings(out)
	return out
}

// chordFigure10Start replicates the start state of the paper's Figure 10
// Chord scenario (see chord's own model-checking test): A(1), C(3), D(5)
// form a ring after B's departure, and a reset + rejoin of C can produce
// pred(C)=C while other successors exist.
func chordFigure10Start() (sm.Factory, *mc.GState) {
	factory := chord.New(chord.Config{Bootstrap: []sm.NodeID{1}})
	a := factory(1).(*chord.Ring)
	a.Joined = true
	a.Pred = 5
	a.Succs = []sm.NodeID{3, 5, 1}

	c := factory(3).(*chord.Ring)
	c.Joined = true
	c.Pred = 1
	c.Succs = []sm.NodeID{5, 1, 3}

	d := factory(5).(*chord.Ring)
	d.Joined = true
	d.Pred = 3
	d.Succs = []sm.NodeID{1, 3, 5}

	g := mc.NewGState()
	g.AddNode(1, a, sm.TimerSet{chord.TimerStabilize})
	g.AddNode(3, c, sm.TimerSet{chord.TimerStabilize})
	g.AddNode(5, d, sm.TimerSet{chord.TimerStabilize})
	return factory, g
}

// paxosPostRound1Start replicates the post-round-1 snapshot of the paper's
// Figure 13 Paxos scenario (see paxos's own model-checking test).
func paxosPostRound1Start(factory sm.Factory) *mc.GState {
	a := factory(1).(*paxos.Paxos)
	a.PromisedRound = 3
	a.AcceptedRound = 3
	a.AcceptedVal = 0
	a.HasAccepted = true
	a.CurRound = 3
	a.Proposing = true
	a.AcceptSent = true
	a.ChosenVals = []int64{0}
	a.Learns = map[uint64]map[sm.NodeID]int64{3: {1: 0, 2: 0}}

	b := factory(2).(*paxos.Paxos)
	b.PromisedRound = 3
	b.AcceptedRound = 3
	b.AcceptedVal = 0
	b.HasAccepted = true
	b.Learns = map[uint64]map[sm.NodeID]int64{3: {2: 0}}

	g := mc.NewGState()
	g.AddNode(1, a, nil)
	g.AddNode(2, b, nil)
	g.AddNode(3, factory(3).(*paxos.Paxos), nil)
	return g
}

// Depth bounds for the determinism scenarios: deep enough to reach the
// paper's violations, shallow enough to explore exhaustively (no state
// cutoff, so the reachable set is independent of worker interleaving).
const (
	chordDeterminismDepth = 10
	paxosDeterminismDepth = 9
)

// TestParallelChordDeterminism: on the Chord Figure 10 scenario, a
// depth-bounded parallel search yields the same distinct violation
// signatures as the serial one.
func TestParallelChordDeterminism(t *testing.T) {
	run := func(workers int) *mc.Result {
		factory, g := chordFigure10Start()
		s := mc.NewSearch(mc.Config{
			Props:             props.Set{chord.PropPredSelfImpliesSuccSelf},
			Factory:           factory,
			Mode:              mc.Consequence,
			ExploreResets:     true,
			ExploreConnBreaks: true,
			MaxResetsPerPath:  1,
			Budget:            mc.Budget{Depth: chordDeterminismDepth, Workers: workers},
		})
		return s.Run(g)
	}
	serial := run(1)
	if len(serial.Violations) == 0 {
		t.Fatal("serial search missed the Figure 10 inconsistency")
	}
	parallel := run(4)
	if got, want := distinctSignatures(parallel), distinctSignatures(serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=4 signatures %v, serial %v", got, want)
	}
	if parallel.StatesExplored != serial.StatesExplored {
		t.Fatalf("workers=4 states %d, serial %d", parallel.StatesExplored, serial.StatesExplored)
	}
}

// TestParallelPaxosDeterminism: same check on the Paxos Figure 13 bug-1
// scenario.
func TestParallelPaxosDeterminism(t *testing.T) {
	factory := paxos.New(paxos.Config{Members: []sm.NodeID{1, 2, 3}, Bug1: true})
	run := func(workers int) *mc.Result {
		s := mc.NewSearch(mc.Config{
			Props:   paxos.Properties,
			Factory: factory,
			Mode:    mc.Consequence,
			Budget:  mc.Budget{Depth: paxosDeterminismDepth, Workers: workers},
		})
		return s.Run(paxosPostRound1Start(factory))
	}
	serial := run(1)
	if len(serial.Violations) == 0 {
		t.Fatal("serial search missed the bug-1 violation")
	}
	parallel := run(4)
	if got, want := distinctSignatures(parallel), distinctSignatures(serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=4 signatures %v, serial %v", got, want)
	}
	if parallel.StatesExplored != serial.StatesExplored {
		t.Fatalf("workers=4 states %d, serial %d", parallel.StatesExplored, serial.StatesExplored)
	}
}

// oracleWalkExt drives random event paths from start and checks the
// incremental hash against the from-scratch recomputation at every state;
// the external-package twin of the toy oracle in hash_oracle_test.go.
func oracleWalkExt(t *testing.T, s *mc.Search, start *mc.GState, walks, depth int, seed int64) {
	t.Helper()
	checkState := func(g *mc.GState, step int) {
		t.Helper()
		if got, want := g.Hash(), g.FullHash(); got != want {
			t.Fatalf("step %d: incremental hash %#x != from-scratch %#x", step, got, want)
		}
	}
	checkState(start, -1)
	for w := 0; w < walks; w++ {
		rng := sm.NewRand(seed ^ int64(w+1)*-0x61c8864680b583eb)
		g := start
		for step := 0; step < depth; step++ {
			network, internal := s.EnabledEvents(g)
			all := append([]sm.Event{}, network...)
			for _, id := range g.Nodes() {
				all = append(all, internal[id]...)
			}
			if len(all) == 0 {
				break
			}
			var next *mc.GState
			for _, i := range rng.Perm(len(all)) {
				if next = s.ApplyEvent(g, all[i]); next != nil {
					break
				}
			}
			if next == nil {
				break
			}
			checkState(next, step)
			// The predecessor must be untouched by successor construction.
			checkState(g, step)
			g = next
		}
	}
}

// TestHashOracleChord walks the paper's Figure 10 Chord scenario with
// resets and connection breaks enabled.
func TestHashOracleChord(t *testing.T) {
	factory, g := chordFigure10Start()
	s := mc.NewSearch(mc.Config{
		Props:             props.Set{},
		Factory:           factory,
		ExploreResets:     true,
		ExploreConnBreaks: true,
		MaxResetsPerPath:  1,
	})
	oracleWalkExt(t, s, g, 25, 20, 23)
}

// TestHashOraclePaxos walks the paper's Figure 13 Paxos scenario.
func TestHashOraclePaxos(t *testing.T) {
	factory := paxos.New(paxos.Config{Members: []sm.NodeID{1, 2, 3}, Bug1: true})
	s := mc.NewSearch(mc.Config{
		Props:         props.Set{},
		Factory:       factory,
		ExploreResets: true,
	})
	oracleWalkExt(t, s, paxosPostRound1Start(factory), 25, 20, 37)
}

// TestHashOracleCRDT walks the CRDT scenarios — gcounter and orset from
// their initial states, lwwmap from the staged clock-tie start with its
// in-flight puts — with resets enabled, pinning the incremental GState
// fingerprint against from-scratch re-encoding for map-heavy replica
// state (delivered-op sets, count vectors, live tags, tombstones).
func TestHashOracleCRDT(t *testing.T) {
	members := []sm.NodeID{1, 2, 3}
	fresh := func(f sm.Factory) *mc.GState {
		g := mc.NewGState()
		for _, id := range members {
			g.AddNode(id, f(id), nil)
		}
		return g
	}
	cases := []struct {
		name    string
		factory sm.Factory
		start   func(sm.Factory) *mc.GState
		seed    int64
	}{
		{"gcounter", crdt.NewCounter(members, false), fresh, 41},
		{"orset", crdt.NewSet(members, false), fresh, 43},
		{"lwwmap", crdt.NewMap(members, false), crdt.TieStart, 47},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := mc.NewSearch(mc.Config{
				Props:            props.Set{},
				Factory:          tc.factory,
				ExploreResets:    true,
				MaxResetsPerPath: 1,
			})
			oracleWalkExt(t, s, tc.start(tc.factory), 25, 20, tc.seed)
		})
	}
}

// paxosExhaustiveStart is the Figure 13 snapshot under the configuration the
// window and state-budget tests explore from.
func paxosExhaustiveStart() (mc.Config, *mc.GState) {
	factory := paxos.New(paxos.Config{Members: []sm.NodeID{1, 2, 3}, Bug1: true})
	return mc.Config{Props: paxos.Properties, Factory: factory, ExploreResets: true}, paxosPostRound1Start(factory)
}

// TestWindowIndependencePaxos and TestWindowIndependenceChord run the
// window-independence oracle (mc.CheckWindowIndependence) on the two real
// services at depths whose widest exhaustive bucket — 6,170 and 3,663
// states — spans several default windows.
func TestWindowIndependencePaxos(t *testing.T) {
	cfg, start := paxosExhaustiveStart()
	cfg.Budget = mc.Budget{Depth: 7}
	mc.CheckWindowIndependence(t, cfg, start, mc.Exhaustive)
}

func TestWindowIndependenceChord(t *testing.T) {
	factory, start := chordFigure10Start()
	cfg := mc.Config{
		Props: props.Set{chord.PropPredSelfImpliesSuccSelf}, Factory: factory,
		ExploreResets: true, ExploreConnBreaks: true, MaxResetsPerPath: 1,
		Budget: mc.Budget{Depth: 5},
	}
	mc.CheckWindowIndependence(t, cfg, start, mc.Exhaustive)
}

// TestStateBudgetCapsQueuePaxos is TestStateBudgetCapsQueueToy on paxos: the
// serial state-bounded runs claim and execute what was recorded when capped
// runs stopped building, and check what the uncapped queue did
// (TestCappedRunsCheckRecordedStates).
func TestStateBudgetCapsQueuePaxos(t *testing.T) {
	cfg, start := paxosExhaustiveStart()
	cfg.Reduce = true
	for _, tc := range []struct {
		mode   mc.Mode
		states int
		want   mc.CapRun
	}{
		{mc.Exhaustive, 10, mc.CapRun{Claimed: 30, Locals: 15, ClaimedSum: 0xec67f16e480deeaa, LocalSum: 0x6be814d744f01a7f, Transitions: 37, Violations: 0}},
		{mc.Exhaustive, 100, mc.CapRun{Claimed: 121, Locals: 33, ClaimedSum: 0xfdb667d0445a0ebf, LocalSum: 0x1bc54a1205abfb9f, Transitions: 154, Violations: 0}},
		{mc.Exhaustive, 1000, mc.CapRun{Claimed: 1312, Locals: 92, ClaimedSum: 0xbe3dbb444300e35b, LocalSum: 0xa641c0d316cc9688, Transitions: 1912, Violations: 0}},
		{mc.Consequence, 10, mc.CapRun{Claimed: 20, Locals: 15, ClaimedSum: 0x96e7bdc91889410e, LocalSum: 0x6be814d744f01a7f, Transitions: 27, Violations: 0}},
		{mc.Consequence, 100, mc.CapRun{Claimed: 132, Locals: 49, ClaimedSum: 0x8b1fa642443a5135, LocalSum: 0xc21d5be32f6282ba, Transitions: 172, Violations: 0}},
		{mc.Consequence, 1000, mc.CapRun{Claimed: 1828, Locals: 256, ClaimedSum: 0x3c0ff0151d26ab35, LocalSum: 0xd713d03246bda1a4, Transitions: 2431, Violations: 0}},
	} {
		cfg.Mode = tc.mode
		if got, _ := mc.StateBudgetRun(t, cfg, start, tc.states, 0, 1); got != tc.want {
			t.Errorf("%v States=%d: %+v, recorded %+v", tc.mode, tc.states, got, tc.want)
		}
		mc.StateBudgetRun(t, cfg, start, tc.states, 0, 4)
	}
	cfg.Mode = mc.Exhaustive
	if got, _ := mc.StateBudgetRun(t, cfg, start, 100000, 4, 1); got.Claimed > 1000 {
		t.Fatalf("%d states within depth 4, want a space the budget does not cut", got.Claimed)
	}
}

// TestCappedRunsCheckRecordedStates is the checked-set oracle on the
// TestStateBudgetCapsQueuePaxos cases and on two capped inputs at benchmark
// size — paxos-consequence at 150,000 states and bulletprime, three nodes,
// exhaustive at 100,000: each serial run admits and checks exactly the states
// it did before the cap stopped building children. Their number and
// fingerprint sum, the depth reached and the violations' signatures were
// recorded on the commit that still built them.
func TestCappedRunsCheckRecordedStates(t *testing.T) {
	paxosCfg, paxosStart := paxosExhaustiveStart()
	paxosCfg.Reduce = true
	type input struct {
		cfg   mc.Config
		start *mc.GState
	}
	paxosIn := func(mode mc.Mode) input {
		cfg := paxosCfg
		cfg.Mode = mode
		return input{cfg, paxosStart}
	}
	scenarioIn := func(service string, nodes int, mode mc.Mode) input {
		cfg, start := benchInput(t, service, nodes, mode, mc.Budget{})
		return input{cfg, start}
	}
	for _, tc := range []struct {
		name   string
		in     input
		states int
		want   mc.Checked
	}{
		{"paxos exhaustive", paxosIn(mc.Exhaustive), 10, mc.Checked{States: 10, Sum: 0xa5a6216a715d4983, Depth: 2}},
		{"paxos exhaustive", paxosIn(mc.Exhaustive), 100, mc.Checked{States: 100, Sum: 0xdebf6b18eb9ee7b8, Depth: 3}},
		{"paxos exhaustive", paxosIn(mc.Exhaustive), 1000, mc.Checked{States: 1000, Sum: 0xf2a4e3b4e0aa20a5, Depth: 5}},
		{"paxos consequence", paxosIn(mc.Consequence), 10, mc.Checked{States: 10, Sum: 0x8b1d0a3c741beb66, Depth: 2}},
		{"paxos consequence", paxosIn(mc.Consequence), 100, mc.Checked{States: 100, Sum: 0x89b1a5e415732b5c, Depth: 4}},
		{"paxos consequence", paxosIn(mc.Consequence), 1000, mc.Checked{States: 1000, Sum: 0x896802f16e2fbd83, Depth: 7}},
		{"paxos-consequence", scenarioIn("paxos", 5, mc.Consequence), 150000, mc.Checked{States: 150000, Sum: 0xe4b5a5bc9d0c4144, Depth: 8}},
		{"bulletprime exhaustive", scenarioIn("bulletprime", 3, mc.Exhaustive), 100000, mc.Checked{States: 100000, Sum: 0xc86b08699c2ec46a, Depth: 38, Signatures: "SenderReceiverFileMapsAgree|msg:Peering; SenderReceiverFileMapsAgree|msg:PeeringAck"}},
	} {
		if _, got := mc.StateBudgetRun(t, tc.in.cfg, tc.in.start, tc.states, 0, 1); got != tc.want {
			t.Errorf("%s States=%d: checked %#v, recorded %#v", tc.name, tc.states, got, tc.want)
		}
	}
}

// TestCapStopsQueueingPaxos is TestCapStopsQueueingToy on paxos.
func TestCapStopsQueueingPaxos(t *testing.T) {
	cfg, start := paxosExhaustiveStart()
	cfg.Reduce = true
	for _, mode := range []mc.Mode{mc.Exhaustive, mc.Consequence} {
		cfg.Mode = mode
		mc.CheckCapStopsQueueing(t, cfg, start, 1000)
	}
}

// TestCountOnlyMatchesEnumeration: on every state a paxos and a chord search
// reach (chord with resets and connection breaks, so all four kinds of
// internal action occur), the enumeration's count-only mode — what the
// consequence rule runs on a (node, local state) it has already claimed, and
// what LocalPrunes is summed from — reports exactly as many internal actions
// as the enumeration lists.
func TestCountOnlyMatchesEnumeration(t *testing.T) {
	chordFactory, chordStart := chordFigure10Start()
	paxosFactory := paxos.New(paxos.Config{Members: []sm.NodeID{1, 2, 3}})
	for _, tc := range []struct {
		name  string
		cfg   mc.Config
		start *mc.GState
		depth int
	}{
		{"chord", mc.Config{Factory: chordFactory, ExploreResets: true, ExploreConnBreaks: true, MaxResetsPerPath: 1}, chordStart, 4},
		{"paxos", mc.Config{Factory: paxosFactory, ExploreResets: true, MaxResetsPerPath: 1}, paxosPostRound1Start(paxosFactory), 4},
	} {
		s := mc.NewSearch(tc.cfg)
		seen := map[uint64]bool{tc.start.Hash(): true}
		level, listed := []*mc.GState{tc.start}, 0
		for depth := 0; depth <= tc.depth; depth++ {
			var next []*mc.GState
			for _, g := range level {
				network, internal := s.EnabledEvents(g)
				events := network
				for _, id := range g.Nodes() {
					events = append(events, internal[id]...)
				}
				if got, want := s.CountInternal(g), len(events)-len(network); got != want {
					t.Fatalf("%s, depth %d: count-only mode reports %d internal actions, the enumeration lists %d", tc.name, depth, got, want)
				}
				listed += len(events) - len(network)
				for _, ev := range events {
					if succ := s.ApplyEvent(g, ev); succ != nil && !seen[succ.Hash()] {
						seen[succ.Hash()] = true
						next = append(next, succ)
					}
				}
			}
			level = next
		}
		if len(seen) < 200 || listed == 0 {
			t.Fatalf("%s: walked %d states and %d internal actions; the comparison is vacuous", tc.name, len(seen), listed)
		}
	}
}

// TestSplitCountMatchesWalk is the oracle for the consequence rule's
// pruned-action count. A pruned node adds the count stored with its claimed
// local state plus two per-state terms — the reset, while the path has
// resets left, and minus the conn breaks an in-flight RST turns into
// deliveries — instead of walking its internal actions. On every state of a
// bounded BFS of every registered scenario, resets and conn breaks forced on,
// that sum must equal the walk at every node, the stored count taken from
// the first state that reached the local state. The run must meet both
// terms: nodes with and without a reset left, and nodes whose conn break an
// RST enables.
func TestSplitCountMatchesWalk(t *testing.T) {
	const maxStates, maxDepth = 3000, 6
	var pairs, resetLeft, noResetLeft, rstEnabled int
	for _, name := range scenario.Names() {
		start, cfg, err := scenario.InitialState(name, scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.ExploreResets, cfg.ExploreConnBreaks = true, true
		s := mc.NewSearch(cfg)
		claims := map[uint64]int{}
		seen := map[uint64]bool{start.Hash(): true}
		level := []*mc.GState{start}
		for depth := 0; depth <= maxDepth && len(level) > 0; depth++ {
			var next []*mc.GState
			for _, g := range level {
				for i, id := range g.Nodes() {
					c := s.SplitCount(g, i, claims)
					if c.Full != c.Split {
						t.Fatalf("%s, depth %d, node %d: the stored count plus the state's terms is %d, the walk counts %d (reset left %v, RST-enabled breaks %v)",
							name, depth, id, c.Split, c.Full, c.ResetLeft, c.RSTEnabled)
					}
					pairs++
					if c.ResetLeft {
						resetLeft++
					} else {
						noResetLeft++
					}
					if c.RSTEnabled {
						rstEnabled++
					}
				}
				network, internal := s.EnabledEvents(g)
				events := network
				for _, id := range g.Nodes() {
					events = append(events, internal[id]...)
				}
				for _, ev := range events {
					if len(seen) == maxStates {
						break
					}
					if succ := s.ApplyEvent(g, ev); succ != nil && !seen[succ.Hash()] {
						seen[succ.Hash()] = true
						next = append(next, succ)
					}
				}
			}
			level = next
		}
	}
	t.Logf("%d (state, node) pairs: %d with a reset left, %d without, %d with RST-enabled conn breaks", pairs, resetLeft, noResetLeft, rstEnabled)
	if resetLeft == 0 || noResetLeft == 0 || rstEnabled == 0 {
		t.Fatalf("%d pairs, %d with a reset left, %d without, %d with RST-enabled conn breaks: a per-state term goes unchecked", pairs, resetLeft, noResetLeft, rstEnabled)
	}
}

// benchInput builds a registered scenario's start state and checker
// configuration the way the benchmark's offline workloads (and mcheck's
// default flags) do: resets on, reduction on, one worker.
func benchInput(t *testing.T, service string, nodes int, mode mc.Mode, b mc.Budget) (mc.Config, *mc.GState) {
	t.Helper()
	g, cfg, err := scenario.InitialState(service, scenario.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode, cfg.Budget = mode, b
	cfg.ExploreResets, cfg.Reduce = true, true
	cfg.Budget.Workers = 1
	return cfg, g
}

// skipUnlessPooling skips a whole-search allocation bound when sync.Pool does
// not keep what it is given: under the race detector Put drops a quarter of
// its items on purpose, so every so often ApplyEvent builds a fresh scratch
// and the count measures the detector, not the checker.
func skipUnlessPooling(t *testing.T) {
	t.Helper()
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			t.Skip("sync.Pool is dropping items (race detector): allocation counts are not the checker's")
		}
	}
}

// TestPathOraclePaxos and TestPathOracleChord run the path oracle over every
// claimed state (mc.CheckPathOracle) on the benchmark's two smoke inputs:
// paxos to depth 4 and chord, six nodes, to depth 6.
func TestPathOraclePaxos(t *testing.T) {
	cfg, start := benchInput(t, "paxos", 5, mc.Exhaustive, mc.Budget{Depth: 4})
	if n := mc.CheckPathOracle(t, cfg, start); n < 5000 {
		t.Fatalf("only %d states claimed", n)
	}
}

func TestPathOracleChord(t *testing.T) {
	cfg, start := benchInput(t, "chord", 6, mc.Exhaustive, mc.Budget{Depth: 6})
	if n := mc.CheckPathOracle(t, cfg, start); n < 1000 {
		t.Fatalf("only %d states claimed", n)
	}
}

// TestEveryDuplicateIsUnbuilt: the engine publishes a successor only when
// the claim pass can claim it. With one worker and one range every published
// successor is claimed, so the successors never published (Result.Unbuilt)
// are exactly the transitions that claimed nothing: Transitions minus the
// claimed states but the start state, which is claimed without one. With two
// workers each may publish a fingerprint the other proposes in the same
// window, so Unbuilt can only be smaller there, and the claimed set must not
// move. The inputs are the benchmark's smoke inputs, bounded by depth so the
// claimed set is worker-count independent: paxos exhaustive and consequence,
// bulletprime and chord.
func TestEveryDuplicateIsUnbuilt(t *testing.T) {
	for _, tc := range []struct {
		service string
		nodes   int
		mode    mc.Mode
		depth   int
	}{
		{"paxos", 5, mc.Exhaustive, 5},
		{"paxos", 5, mc.Consequence, 6},
		{"bulletprime", 3, mc.Exhaustive, 16},
		{"chord", 6, mc.Exhaustive, 6},
	} {
		cfg, start := benchInput(t, tc.service, tc.nodes, tc.mode, mc.Budget{Depth: tc.depth})
		cfg.RecordClaimedStates = true
		serial := mc.NewSearch(cfg).Run(start)
		duplicates := serial.Transitions - (len(serial.ClaimedStates) - 1)
		t.Logf("%s %v depth %d: %d transitions, %d claimed, %d unbuilt", tc.service, tc.mode, tc.depth, serial.Transitions, len(serial.ClaimedStates), serial.Unbuilt)
		if serial.Unbuilt != duplicates || duplicates == 0 {
			t.Errorf("%s %v: %d successors unbuilt, %d transitions claimed nothing", tc.service, tc.mode, serial.Unbuilt, duplicates)
		}
		cfg.Budget.Workers = 2
		two := mc.NewSearch(cfg).Run(start)
		if two.Unbuilt > two.Transitions-(len(two.ClaimedStates)-1) || !slices.Equal(two.ClaimedStates, serial.ClaimedStates) {
			t.Errorf("%s %v at two workers: %d unbuilt of %d transitions, %d claimed (serial: %d claimed)", tc.service, tc.mode, two.Unbuilt, two.Transitions, len(two.ClaimedStates), len(serial.ClaimedStates))
		}
	}
}

// TestAllocsPerTransitionPaxosSmoke pins the whole search's allocation count
// on the benchmark's paxos smoke input: everything a transition costs —
// clone, handler, successor, proposal, claim, tree entry, frontier entry,
// sleep set — and nothing per enumerated-but-slept event. 16.6 before the
// tree was slabs (a Node, a boxed event per enumerated event, a re-boxed
// delivery, a sleep-set slice of keys, per-call maps and sort closures in the
// service), 9.86 while every NodeState kept a copy of its service encoding,
// 9.17 while every successor was built on the heap before the visited table
// was asked, 7.33 while every executed transition boxed its event, 6.48
// while every transition ran its handler, 4.91 while a memo hit built every
// item it sent, 3.26 while every clean leaf at the depth bound was published,
// 0.77 while every reset built its service from the factory, every window
// regrew its proposal and sibling buffers and every sleep set was a slice of
// its own, 0.56 while every clean leaf took a tree entry and a held entry and
// every changed set of stale pairs was a slice of its own; measured 0.51 with
// a clean leaf a fingerprint in the leaf set and stale pairs cut from a chunk
// (5,440 of this input's 6,331 claimed states are leaves). The bound is that
// figure plus a sixth, for what a collection during the run can cost the
// pooled scratches.
func TestAllocsPerTransitionPaxosSmoke(t *testing.T) {
	skipUnlessPooling(t)
	cfg, start := benchInput(t, "paxos", 5, mc.Exhaustive, mc.Budget{Depth: 4})
	var res *mc.Result
	allocs := testing.AllocsPerRun(2, func() { res = mc.NewSearch(cfg).Run(start) })
	per := allocs / float64(res.Transitions)
	t.Logf("%d states, %d transitions, %.2f allocations per transition", res.StatesExplored, res.Transitions, per)
	if res.SleepHits == 0 || res.Transitions < 5000 {
		t.Fatalf("%d transitions, %d sleep hits: the input exercises too little", res.Transitions, res.SleepHits)
	}
	if per > 0.6 {
		t.Fatalf("%.2f allocations per transition, want <= 0.6", per)
	}
}

// TestSmallRoundCostsNoMoreThanBefore: a live deployment runs the checker as
// thousands of cold rounds of a few hundred states, so what an engine costs
// before it has claimed anything counts — the slabs start with small chunks.
// A 300-state consequence round on the live workload's service (from the
// Figure 10 ring) allocates no more than it did with one heap Node per child (the parent commit's figure,
// measured by this test there: 321 kB; 296 kB while every successor was
// built on the heap, 226 kB while every executed transition boxed its event,
// 219 kB while every reset built its service from the factory and the
// claim window's buffers grew by appending, 154 kB now).
func TestSmallRoundCostsNoMoreThanBefore(t *testing.T) {
	skipUnlessPooling(t)
	factory, start := chordFigure10Start()
	cfg := mc.Config{
		Props: props.Set{chord.PropPredSelfImpliesSuccSelf}, Factory: factory, Mode: mc.Consequence,
		ExploreResets: true, ExploreConnBreaks: true, Reduce: true,
		Budget: mc.Budget{States: 300, Workers: 1},
	}
	mc.NewSearch(cfg).Run(start) // warm the scratch pool
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *mc.Result
	for i := 0; i < rounds; i++ {
		res = mc.NewSearch(cfg).Run(start)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("%d states, %d transitions, %.0f B per round", res.StatesExplored, res.Transitions, perRound)
	if res.StatesExplored != 300 {
		t.Fatalf("round explored %d states, want 300", res.StatesExplored)
	}
	const parentBytes = 321000
	if perRound > parentBytes {
		t.Fatalf("a 300-state round allocates %.0f B, %d at the parent commit", perRound, parentBytes)
	}
}

// TestRestartIntoASpareEqualsRestartFresh: the checker's reset restarts its
// node in a worker's spare service — a copy of the node's pristine service,
// which the search's factory built once, written with CloneInto over whatever
// service the spare last held — where the runtime restarts it fresh from the
// factory. For every registered scenario, with its seeded bugs and fixed, and
// every node of a state its handlers have run in, both restarts of the node's
// service there, the spare a copy of a service that has run handlers too,
// Init to the same bytes: EncodeFullState, the pending timers and the sends.
// Paxos keeps a disk, so its restarts go through RestoreStable on both paths.
func TestRestartIntoASpareEqualsRestartFresh(t *testing.T) {
	restored, dirty, nodes := 0, 0, 0
	for _, name := range scenario.Names() {
		for _, fixed := range []bool{false, true} {
			g, cfg, err := scenario.InitialState(name, scenario.Options{Fixed: fixed})
			if err != nil {
				t.Fatal(err)
			}
			s := mc.NewSearch(cfg)
			lived := runHandlers(s, g, 8)
			ids := g.Nodes()
			for i, id := range ids {
				old := lived.Node(id).Svc
				if st, ok := old.(sm.StableStore); ok && st.StableBytes() != nil {
					restored++
				}
				// The spare last held another node's service, one that has
				// run handlers.
				spare := lived.Node(ids[(i+1)%len(ids)]).Svc.Clone()
				pristine := cfg.Factory(id)
				before := sm.EncodeFullState(pristine, nil)
				if nodes++; !slices.Equal(sm.EncodeFullState(spare, nil), before) {
					dirty++
				}
				viaSpare := initBytes(sm.Restart(pristine.CloneInto(spare), old), id)
				fresh := initBytes(sm.Restart(cfg.Factory(id), old), id)
				if viaSpare != fresh {
					t.Errorf("%s fixed=%v node %v: restarted in a spare, Init gives\n%s\nfresh from the factory\n%s", name, fixed, id, viaSpare, fresh)
				}
				if after := sm.EncodeFullState(pristine, nil); !slices.Equal(after, before) {
					t.Errorf("%s fixed=%v node %v: copying the pristine service wrote it", name, fixed, id)
				}
			}
		}
	}
	t.Logf("%d restarts, %d into a spare unlike the pristine service, %d with a disk", nodes, dirty, restored)
	if restored == 0 || dirty < nodes/2 {
		t.Fatalf("%d of %d spares differ from the pristine service, %d restarts carried stable storage: the test exercises too little", dirty, nodes, restored)
	}
}

// runHandlers applies up to steps events from g — at each state the first
// enabled delivery, or else the first internal action that is not a reset —
// and returns the state reached.
func runHandlers(s *mc.Search, g *mc.GState, steps int) *mc.GState {
	for range steps {
		network, internal := s.EnabledEvents(g)
		events := network
		for _, id := range g.Nodes() {
			for _, ev := range internal[id] {
				if ev.Kind != 'R' {
					events = append(events, ev)
				}
			}
		}
		var next *mc.GState
		for _, ev := range events {
			if next = s.ApplyEvent(g, ev); next != nil {
				break
			}
		}
		if next == nil {
			return g
		}
		g = next
	}
	return g
}

// initBytes runs Init on svc, a restarted service of node id, with a fixed
// random stream, and renders what a successor keeps of it: the node's full
// state, its pending timers and every send.
func initBytes(svc sm.Service, id sm.NodeID) string {
	var fx sm.Effects
	fx.Begin(id, nil, sm.NewRand(7))
	svc.Init(&fx)
	e := sm.NewEncoder()
	for _, sd := range fx.Sends {
		e.NodeID(sd.To)
		e.String(sd.Msg.MsgType())
		sd.Msg.EncodeMsg(e)
	}
	return fmt.Sprintf("state %x timers %v sends %x", sm.EncodeFullState(svc, fx.Timers), fx.Timers, e.Bytes())
}
