package controller

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/testsvc"
)

// deployWithController brings up n nodes, each with a controller.
func deployWithController(t *testing.T, n int, cfg Config) (*sim.Simulator, []*Controller) {
	t.Helper()
	s := sim.New(31)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	ids := make([]sm.NodeID, n)
	for i := range ids {
		ids[i] = sm.NodeID(i + 1)
	}
	factory := testsvc.NewWithPeers(ids...)
	cfg.Check.Factory = factory
	var ctrls []*Controller
	ws := mc.NewWorkspace()
	for _, id := range ids {
		node := runtime.NewNode(s, net, id, factory)
		c := New(s, node, cfg, ws)
		c.Start()
		ctrls = append(ctrls, c)
	}
	return s, ctrls
}

func debugCfg(limit int) Config {
	cfg := DefaultConfig(mc.Config{
		Props:  props.Set{testsvc.CounterBelow(limit)},
		Budget: mc.Budget{States: 3000},
	})
	cfg.SnapshotInterval = 2 * time.Second
	cfg.PerStateCost = 100 * time.Microsecond
	cfg.EnableISC = false
	return cfg
}

func TestDebuggingModePredictsFutureViolation(t *testing.T) {
	// The property "counter < 2" is not violated live (nothing bumps the
	// counter), but the checker's app-call exploration (Bump) predicts a
	// state where it would be.
	s, ctrls := deployWithController(t, 2, debugCfg(2))
	s.RunFor(30 * time.Second)
	var total int64
	for _, c := range ctrls {
		total += c.Stats.ViolationsPredicted
	}
	if total == 0 {
		t.Fatal("no future violation predicted by consequence prediction")
	}
	for _, c := range ctrls {
		if len(c.Findings()) > 0 {
			f := c.Findings()[0]
			if len(f.Path) == 0 {
				t.Fatal("finding lacks an event path")
			}
			if f.Filter != nil {
				t.Fatal("debugging mode must not install filters")
			}
		}
	}
}

func TestRoundsAndSnapshotsProceed(t *testing.T) {
	cfg := debugCfg(1000)
	cfg.Check.Budget.States = 300 // liveness of the round loop, not search depth
	s, ctrls := deployWithController(t, 3, cfg)
	s.RunFor(15 * time.Second)
	for i, c := range ctrls {
		if c.Stats.Rounds == 0 {
			t.Fatalf("controller %d never completed a round", i)
		}
		if c.lastView == nil {
			t.Fatalf("controller %d has no snapshot view", i)
		}
	}
}

func TestSteeringInstallsFilter(t *testing.T) {
	cfg := debugCfg(2)
	cfg.Mode = ExecutionSteering
	// Disable the safety recheck here: with this toy property every
	// post-filter state still violates eventually, which would always
	// veto; the recheck has its own test below.
	cfg.CheckFilterSafety = false
	s, ctrls := deployWithController(t, 2, cfg)
	s.RunFor(40 * time.Second)
	var installed int64
	var unhelpful int64
	for _, c := range ctrls {
		installed += c.Stats.FiltersInstalled
		unhelpful += c.Stats.SteeringUnhelpful
	}
	if installed == 0 && unhelpful == 0 {
		t.Fatal("steering mode neither installed filters nor reported unhelpful")
	}
	if installed == 0 {
		t.Fatal("no filters installed")
	}
}

func TestFilterSafetyCheckVetoesUselessFilter(t *testing.T) {
	// With CounterBelow(2) every node can violate via its *own* Bump app
	// call as well, so filtering a single message does not make the
	// violation unreachable: the safety check must reject the filter.
	cfg := debugCfg(2)
	cfg.Mode = ExecutionSteering
	cfg.CheckFilterSafety = true
	s, ctrls := deployWithController(t, 2, cfg)
	s.RunFor(40 * time.Second)
	var unsafe int64
	for _, c := range ctrls {
		unsafe += c.Stats.FilterUnsafe
	}
	if unsafe == 0 {
		t.Fatal("safety recheck never rejected an unsafe filter")
	}
}

func TestVirtualMCLatencyDelaysReport(t *testing.T) {
	cfg := debugCfg(2)
	cfg.PerStateCost = 10 * time.Millisecond // expensive checker
	cfg.Check.Budget.States = 1000
	s, ctrls := deployWithController(t, 2, cfg)

	var predictionTimes []sim.Time
	for _, c := range ctrls {
		c.OnViolation = func(f Finding) { predictionTimes = append(predictionTimes, f.FoundAt) }
	}
	s.RunFor(30 * time.Second)
	if len(predictionTimes) == 0 {
		t.Skip("no prediction in window (budget too small)")
	}
	// The first snapshot completes shortly after the 2 s interval; even
	// a tiny search (>= 10 states at 10 ms each) delays the report by
	// >= 100 ms beyond that.
	if predictionTimes[0] < sim.Time(2100*time.Millisecond) {
		t.Fatalf("report arrived implausibly fast: %v", predictionTimes[0])
	}
	var st int64
	for _, c := range ctrls {
		st += c.Stats.StatesExplored
	}
	if st == 0 {
		t.Fatal("no states explored")
	}
}

func TestDistinctFindingsDedup(t *testing.T) {
	a := Finding{Violation: mc.Violation{Properties: []string{"P"}, Path: []sm.Event{sm.TimerFiring(1, "t")}}}
	b := Finding{Violation: mc.Violation{Properties: []string{"P"}, Path: []sm.Event{sm.TimerFiring(1, "t")}}}
	c := Finding{Violation: mc.Violation{Properties: []string{"Q"}, Path: []sm.Event{sm.TimerFiring(1, "t")}}}
	got := DistinctFindings([]Finding{a, b, c})
	if len(got) != 2 {
		t.Fatalf("distinct = %d, want 2", len(got))
	}
}

func TestControllerSurvivesNodeResets(t *testing.T) {
	cfg := debugCfg(1000)
	cfg.Check.Budget.States = 300
	s, ctrls := deployWithController(t, 3, cfg)
	s.After(5*time.Second, func() { ctrls[1].Node().Reset(true) })
	s.After(12*time.Second, func() { ctrls[2].Node().Reset(false) })
	s.RunFor(25 * time.Second)
	for i, c := range ctrls {
		if c.Stats.Rounds == 0 {
			t.Fatalf("controller %d stalled after resets", i)
		}
	}
}

func TestISCWiredThroughController(t *testing.T) {
	cfg := debugCfg(1) // nothing may ever exceed counter 0
	cfg.EnableISC = true
	s, ctrls := deployWithController(t, 2, cfg)
	// Drive a Bump at node 1; its gossip to node 2 would raise N to 1.
	s.After(5*time.Second, func() { ctrls[0].Node().App(testsvc.Bump{}) })
	s.RunFor(20 * time.Second)
	n2 := ctrls[1].Node()
	if n2.Stats.ISCChecks == 0 {
		t.Fatal("ISC never consulted")
	}
	if got := n2.Service().(*testsvc.Svc).N; got != 0 {
		t.Fatalf("ISC failed to protect node 2: N=%d", got)
	}
}

// TestCheckerFailureDegradesConservative pins the robustness contract for
// the checker seam: while checker rounds fail, the controller degrades to
// conservative mode — it keeps the filters of the last successful round
// installed (instead of expiring them on the usual per-run schedule),
// counts the failures, and keeps its snapshot loop running — and when the
// checker succeeds again it recovers to normal operation.
func TestCheckerFailureDegradesConservative(t *testing.T) {
	cfg := debugCfg(2)
	cfg.Mode = ExecutionSteering
	cfg.CheckFilterSafety = false
	fail := false
	var searched int64
	cfg.CheckRound = func(mcfg mc.Config, start *mc.GState) (*mc.Result, error) {
		searched++
		if fail {
			return nil, errors.New("checker process crashed")
		}
		return mc.NewSearch(mcfg).Run(start), nil
	}
	s, ctrls := deployWithController(t, 2, cfg)

	// Healthy until 10 s (filters get installed), failing 10 s - 22 s,
	// healthy again afterwards. Rounds run every 2 s.
	s.After(10*time.Second, func() { fail = true })
	type probe struct {
		conservative bool
		filters      int
		rounds       int64
	}
	var during []probe
	s.After(21*time.Second, func() {
		for _, c := range ctrls {
			during = append(during, probe{c.conservative, len(c.Node().Filters()), c.Stats.Rounds})
		}
	})
	s.After(22*time.Second, func() { fail = false })
	s.RunFor(34 * time.Second)

	if len(during) != len(ctrls) {
		t.Fatalf("probe captured %d controllers, want %d", len(during), len(ctrls))
	}
	filtersDuring := 0
	for i, p := range during {
		if !p.conservative {
			t.Errorf("controller %d not conservative during the failure window", i)
		}
		filtersDuring += p.filters
	}
	if filtersDuring == 0 {
		t.Errorf("conservative mode kept no filters installed")
	}
	for i, c := range ctrls {
		if c.Stats.CheckerFailures == 0 {
			t.Errorf("controller %d recorded no checker failures", i)
		}
		if got := c.Stats.Stops["error"]; got != c.Stats.CheckerFailures {
			t.Errorf("controller %d: Stops[error]=%d, CheckerFailures=%d", i, got, c.Stats.CheckerFailures)
		}
		for _, n := range c.Stats.Stops {
			searched -= n
		}
		if c.Stats.ConservativeRounds < c.Stats.CheckerFailures {
			t.Errorf("controller %d: ConservativeRounds=%d < CheckerFailures=%d",
				i, c.Stats.ConservativeRounds, c.Stats.CheckerFailures)
		}
		if c.conservative {
			t.Errorf("controller %d still conservative after the checker recovered", i)
		}
		if c.Stats.Rounds <= during[i].rounds {
			t.Errorf("controller %d: snapshot loop stalled after the failure window (%d rounds, %d during)",
				i, c.Stats.Rounds, during[i].rounds)
		}
	}
	if searched != 0 {
		t.Errorf("Stats.Stops is off by %d from the rounds that crossed CheckRound", searched)
	}
}

// TestStopsSayWhetherTheBudgetBound: every round that searches is counted
// under the reason its search ended, and a state budget too small for the
// reachable space shows up as "states".
func TestStopsSayWhetherTheBudgetBound(t *testing.T) {
	cfg := debugCfg(1 << 30)
	cfg.Check.Budget.States = 50
	s, ctrls := deployWithController(t, 2, cfg)
	s.RunFor(15 * time.Second)
	for i, c := range ctrls {
		if c.Stats.Stops["states"] == 0 {
			t.Errorf("controller %d: stops = %v, want rounds bound by the 50-state budget", i, c.Stats.Stops)
		}
	}
}

// TestModeStringReportsUnknown: the two real modes render their names and
// any other value is reported explicitly instead of masquerading as
// deep-online-debugging.
func TestModeStringReportsUnknown(t *testing.T) {
	if got := DeepOnlineDebugging.String(); got != "deep-online-debugging" {
		t.Fatalf("DeepOnlineDebugging = %q", got)
	}
	if got := ExecutionSteering.String(); got != "execution-steering" {
		t.Fatalf("ExecutionSteering = %q", got)
	}
	if got := Mode(7).String(); got != "unknown-mode(7)" {
		t.Fatalf("Mode(7) = %q, want unknown-mode(7)", got)
	}
	if got := Mode(-1).String(); got != "unknown-mode(-1)" {
		t.Fatalf("Mode(-1) = %q, want unknown-mode(-1)", got)
	}
}

// sameSearch fails unless got is want field for field: the function-valued
// fields by identity, everything else — fields mc.Config grows later
// included — by value.
func sameSearch(t *testing.T, what string, got, want mc.Config) {
	t.Helper()
	if reflect.ValueOf(got.Factory).Pointer() != reflect.ValueOf(want.Factory).Pointer() {
		t.Errorf("%s: not the configured factory", what)
	}
	if len(got.Props) != len(want.Props) || len(got.Props) > 0 && &got.Props[0] != &want.Props[0] {
		t.Errorf("%s: not the configured property set", what)
	}
	got.Factory, got.Props, want.Factory, want.Props = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: ran\n%+v\nwant\n%+v", what, got, want)
	}
}

// TestRoundsRunTheConfiguredSearch: a round's configuration is cfg.Check —
// the CheckRound seam receives it with only the mode forced and the
// violation quota defaulted, and the filter-safety recheck is that same
// value with the filter assumed installed, half the states and a quota of
// one. Nothing is rebuilt per round, so nothing can be dropped on the way.
func TestRoundsRunTheConfiguredSearch(t *testing.T) {
	cfg := debugCfg(2)
	cfg.Check.ExploreResets = true
	cfg.Check.ExploreConnBreaks = true
	cfg.Check.MaxResetsPerPath = 2
	cfg.Check.Reduce = true
	cfg.Check.Seed = 99
	cfg.Check.Budget = mc.Budget{States: 3001, Depth: 7, Workers: 1}
	cfg.Check.Mode = mc.Exhaustive // the controller overrides it
	var seen []mc.Config
	cfg.CheckRound = func(mcfg mc.Config, start *mc.GState) (*mc.Result, error) {
		seen = append(seen, mcfg)
		return mc.NewSearch(mcfg).Run(start), nil
	}
	s, ctrls := deployWithController(t, 2, cfg)
	s.RunFor(10 * time.Second)
	if len(seen) == 0 {
		t.Fatal("no round crossed the CheckRound seam")
	}

	want := cfg.Check
	want.Factory = ctrls[0].cfg.Check.Factory // deployWithController's
	want.Mode = mc.Consequence
	want.Budget.Violations = defaultMaxViolations
	for _, got := range seen {
		sameSearch(t, "round", got, want)
	}

	f := sm.Filter{Key: sm.EventKey{Kind: 'T', Node: 1, Name: "t"}}
	want.Filters = []sm.Filter{f}
	want.Budget.Violations = 1
	want.Budget.States = 1500
	sameSearch(t, "filter recheck", ctrls[0].recheckConfig(f), want)
}
