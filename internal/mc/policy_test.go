package mc

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestFixedPolicyPlanIsIdentity: FixedPolicy returns its budget verbatim on
// every round and ignores feedback — the exact pre-policy behavior.
func TestFixedPolicyPlanIsIdentity(t *testing.T) {
	base := Budget{States: 20000, Depth: 7, Wall: time.Minute, Violations: 8, Workers: 3}
	p := &FixedPolicy{Budget: base}
	for round := 1; round <= 5; round++ {
		got := p.Plan(RoundInfo{Round: round, SnapshotBytes: round * 1000, Interval: 10 * time.Second})
		if got != base {
			t.Fatalf("round %d: Plan = %+v, want %+v", round, got, base)
		}
		p.Observe(RoundReport{Budget: got, States: 1, Elapsed: time.Hour})
	}
}

// TestScaledPolicyScalesInverselyAndClamps: states scale as RefBytes /
// SnapshotBytes (per-state cost grows with snapshot size, so work stays
// flat), clamped to [MinStates, MaxStates], other fields untouched.
func TestScaledPolicyScalesInverselyAndClamps(t *testing.T) {
	p := &ScaledPolicy{Base: Budget{States: 8000, Workers: 2}, RefBytes: 4096}
	cases := []struct {
		bytes int
		want  int
	}{
		{4096, 8000},    // reference size: exactly Base
		{8192, 4000},    // double the bytes: half the states
		{2048, 16000},   // half the bytes: double the states
		{1, 64000},      // tiny snapshot: clamped at Base*8
		{1 << 30, 1000}, // huge snapshot: clamped at Base/8
		{0, 8000},       // unknown size: Base verbatim
	}
	for _, tc := range cases {
		got := p.Plan(RoundInfo{SnapshotBytes: tc.bytes})
		if got.States != tc.want {
			t.Errorf("SnapshotBytes %d: states = %d, want %d", tc.bytes, got.States, tc.want)
		}
		if got.Workers != 2 {
			t.Errorf("SnapshotBytes %d: workers = %d, want 2 (untouched)", tc.bytes, got.Workers)
		}
	}

	// An explicit MaxStates below the derived Base/8 floor still caps:
	// the ceiling wins a floor/ceiling conflict.
	capped := &ScaledPolicy{Base: Budget{States: 20000}, MaxStates: 1000}
	if got := capped.Plan(RoundInfo{SnapshotBytes: 1 << 30}); got.States != 1000 {
		t.Errorf("explicit cap below derived floor: states = %d, want 1000", got.States)
	}
}

// TestAdaptivePolicyShrinksAndGrows walks the EWMA controller through the
// paper's scenario: a first round on the base budget, an overrun report
// that must shrink the next plan inside the target window, then a fast
// report that must grow it back past the base.
func TestAdaptivePolicyShrinksAndGrows(t *testing.T) {
	p := &AdaptivePolicy{
		Base:       Budget{States: 20000, Workers: 1, Violations: 8},
		MaxWorkers: 4,
	}
	info := RoundInfo{Round: 1, SnapshotBytes: 2048, Interval: 10 * time.Second}

	// Round 1: no feedback — the base verbatim.
	b1 := p.Plan(info)
	if b1 != p.Base {
		t.Fatalf("first plan = %+v, want base %+v", b1, p.Base)
	}

	// The 20000-state round took 40 s against a 10 s interval (500
	// states/sec at one worker): the next plan must land inside the 5 s
	// target window — more workers, fewer states.
	p.Observe(RoundReport{Budget: b1, States: 20000, Elapsed: 40 * time.Second})
	info.Round = 2
	b2 := p.Plan(info)
	if b2.Workers != 4 {
		t.Fatalf("overrun plan workers = %d, want MaxWorkers 4", b2.Workers)
	}
	// 500 states/sec/worker * 4 workers * 5 s target = 10000 states.
	if b2.States != 10000 {
		t.Fatalf("overrun plan states = %d, want 10000", b2.States)
	}
	if b2.States >= b1.States {
		t.Fatalf("overrun did not shrink the budget: %d -> %d", b1.States, b2.States)
	}
	// The shrunken plan's predicted duration fits the target window.
	if predicted := float64(b2.States) / (500 * float64(b2.Workers)); predicted > 5 {
		t.Fatalf("predicted duration %.1fs exceeds the 5s target", predicted)
	}

	// A fast round (12500 states/sec/worker) pulls the EWMA up; the plan
	// must grow beyond the base ask.
	p.Observe(RoundReport{Budget: b2, States: 10000, Elapsed: 200 * time.Millisecond})
	info.Round = 3
	b3 := p.Plan(info)
	// EWMA: 0.3*12500 + 0.7*500 = 4100 states/sec/worker; one worker now
	// reaches the ask, so states = 4100 * 5 s = 20500 > 20000.
	if b3.Workers != 1 {
		t.Fatalf("fast plan workers = %d, want 1", b3.Workers)
	}
	if b3.States != 20500 {
		t.Fatalf("fast plan states = %d, want 20500", b3.States)
	}
	if b3.States <= p.Base.States {
		t.Fatalf("fast feedback did not grow the budget past the base: %d", b3.States)
	}

	// Untimed rounds (offline use) always get the base.
	if got := p.Plan(RoundInfo{Round: 4}); got != p.Base {
		t.Fatalf("untimed plan = %+v, want base", got)
	}
}

// TestAdaptivePolicyDeterministicPlans: Plan reads no clock — a fixed
// RoundReport sequence yields an identical budget sequence from any fresh
// instance. Time reaches the policy only through RoundReport.Elapsed (the
// injected clock).
func TestAdaptivePolicyDeterministicPlans(t *testing.T) {
	reports := []RoundReport{
		{States: 20000, Elapsed: 40 * time.Second},
		{States: 10000, Elapsed: 700 * time.Millisecond},
		{States: 4000, Elapsed: 11 * time.Second},
		{States: 9000, Elapsed: 3 * time.Second},
		{States: 128, Elapsed: 17 * time.Millisecond},
	}
	run := func() []Budget {
		p := &AdaptivePolicy{
			Base:       Budget{States: 20000, Workers: 2, Violations: 8},
			MaxWorkers: 8,
		}
		var plans []Budget
		for i, r := range reports {
			plan := p.Plan(RoundInfo{Round: i + 1, SnapshotBytes: 1000 + i, Interval: 10 * time.Second})
			plans = append(plans, plan)
			r.Budget = plan
			p.Observe(r)
		}
		plans = append(plans, p.Plan(RoundInfo{Round: len(reports) + 1, Interval: 10 * time.Second}))
		return plans
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same report sequence produced different plans:\n%v\nvs\n%v", a, b)
	}
}

// TestAdaptivePolicyWorkerCapResolvedAtConstruction: Plan reads nothing
// ambient. The default worker cap is max(Base.Workers, GOMAXPROCS) as seen
// by PolicySpec.New; changing GOMAXPROCS afterwards must not change a plan,
// and a directly constructed policy with no cap never grows its pool.
func TestAdaptivePolicyWorkerCapResolvedAtConstruction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := PolicySpec{Kind: PolicyAdaptive, Base: Budget{States: 20000, Workers: 1}}.MustNew()
	runtime.GOMAXPROCS(1)
	// 500 states/sec against a 20000-state ask in a 5 s window: the plan
	// wants every worker it may have.
	slow := RoundReport{Budget: Budget{Workers: 1}, States: 500, Elapsed: time.Second}
	p.Observe(slow)
	if got := p.Plan(RoundInfo{Round: 2, Interval: 10 * time.Second}).Workers; got != 4 {
		t.Errorf("spec-built policy planned %d workers after GOMAXPROCS changed, want the 4 resolved by New", got)
	}
	bare := &AdaptivePolicy{Base: Budget{States: 20000, Workers: 2}}
	bare.Observe(slow)
	if got := bare.Plan(RoundInfo{Round: 2, Interval: 10 * time.Second}).Workers; got != 2 {
		t.Errorf("uncapped literal policy planned %d workers, want Base.Workers = 2", got)
	}
}

// TestPolicyPlanObserveAllocFree: all built-in policies are allocation-free
// on the round hot path, part of the Policy contract.
func TestPolicyPlanObserveAllocFree(t *testing.T) {
	policies := map[string]Policy{
		"fixed":    &FixedPolicy{Budget: Budget{States: 20000, Workers: 2}},
		"scaled":   &ScaledPolicy{Base: Budget{States: 8000, Workers: 2}},
		"adaptive": &AdaptivePolicy{Base: Budget{States: 20000, Workers: 2}, MaxWorkers: 4},
	}
	for name, p := range policies {
		info := RoundInfo{Round: 1, SnapshotBytes: 4096, SnapshotNodes: 5, Interval: 10 * time.Second}
		if avg := testing.AllocsPerRun(1000, func() {
			plan := p.Plan(info)
			info.Round++
			p.Observe(RoundReport{
				Budget:  plan,
				States:  plan.States,
				Elapsed: time.Duration(plan.States) * 300 * time.Microsecond,
			})
		}); avg != 0 {
			t.Errorf("%s: Plan+Observe allocates %.2f/op, want 0", name, avg)
		}
	}
}

// TestPolicySpecKinds: the spec builds every built-in, defaults the empty
// kind to fixed, prefers Make, and rejects unknown kinds.
func TestPolicySpecKinds(t *testing.T) {
	base := Budget{States: 123}
	if p := (PolicySpec{Base: base}).MustNew(); p.(*FixedPolicy).Budget != base {
		t.Fatal("empty kind did not build a FixedPolicy over the base")
	}
	if _, ok := (PolicySpec{Kind: PolicyScaled}).MustNew().(*ScaledPolicy); !ok {
		t.Fatal("scaled kind did not build a ScaledPolicy")
	}
	if _, ok := (PolicySpec{Kind: PolicyAdaptive}).MustNew().(*AdaptivePolicy); !ok {
		t.Fatal("adaptive kind did not build an AdaptivePolicy")
	}
	custom := &FixedPolicy{}
	spec := PolicySpec{Kind: "nonsense", Make: func() Policy { return custom }}
	if p, err := spec.New(); err != nil || p != Policy(custom) {
		t.Fatalf("Make override: got %v, %v", p, err)
	}
	if _, err := (PolicySpec{Kind: "nonsense"}).New(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
