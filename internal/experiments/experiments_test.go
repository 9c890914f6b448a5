package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/simnet"
)

func TestFig12ExhaustiveGrowth(t *testing.T) {
	pts := must(Fig12Exhaustive(Fig12Config{Seed: 1, Nodes: 4, MaxDepth: 5, MaxStates: 200000}))
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	// The hallmark of Figure 12: state counts (and so elapsed time) grow
	// superlinearly with depth.
	for i := 1; i < len(pts); i++ {
		if pts[i].States < pts[i-1].States {
			t.Fatalf("states shrank with depth: %+v", pts)
		}
	}
	if pts[4].States < 8*pts[1].States {
		t.Fatalf("no exponential growth: depth2=%d depth5=%d", pts[1].States, pts[4].States)
	}
	if !strings.Contains(FormatDepthPoints("x", pts), "depth") {
		t.Fatal("formatting broken")
	}
}

// TestFig12EndsAtTheFirstBoundDepth: a depth the state bound stops is the
// last of the sweep — every deeper one would run the same capped search —
// and the table says why each depth ended and that its states are the
// ones checked.
func TestFig12EndsAtTheFirstBoundDepth(t *testing.T) {
	pts := must(Fig12Exhaustive(Fig12Config{Seed: 1, Nodes: 4, MaxDepth: 8, MaxStates: 500}))
	last := pts[len(pts)-1]
	if last.Stop != "states" || len(pts) == 8 {
		t.Fatalf("the sweep ran %d depths and the last stopped on %q: want it to end at the first depth the 500-state bound stops", len(pts), last.Stop)
	}
	for _, p := range pts[:len(pts)-1] {
		if p.Stop != mc.FrontierEmpty {
			t.Fatalf("depth %d stopped on %q and the sweep went on: %+v", p.Depth, p.Stop, pts)
		}
	}
	if table := FormatDepthPoints("x", pts); !strings.Contains(table, "stop") || !strings.Contains(table, "checked-states") {
		t.Fatalf("the table does not print the stop reason and the checked states:\n%s", table)
	}
}

func TestFig15MemoryGrowsAndPerStateStabilises(t *testing.T) {
	pts := Fig15Memory(Fig15Config{Seed: 1, MaxDepth: 5, MaxStates: 150000})
	last := pts[len(pts)-1]
	if last.MemBytes <= pts[0].MemBytes {
		t.Fatalf("memory did not grow with depth: %+v", pts)
	}
	// Figure 16's shape: per-state cost settles in the hundreds of bytes —
	// tree, tables and frontier counted at what they allocate.
	if last.PerStateByte < 100 || last.PerStateByte > 1000 {
		t.Fatalf("per-state bytes implausible: %v", last.PerStateByte)
	}
}

func TestDepthComparisonConsequenceWins(t *testing.T) {
	budget := 2 * time.Second
	if testing.Short() {
		budget = 500 * time.Millisecond
	}
	rows := must(DepthComparison(1, budget, []int{5}, 0))
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	var exLive, cpLive DepthBudgetRow
	for _, r := range rows {
		if r.Start != "live-snapshot" {
			continue
		}
		if r.Mode == "exhaustive" {
			exLive = r
		} else {
			cpLive = r
		}
	}
	// From the live snapshot, consequence prediction must find the
	// Figure 2-class violation with no more states than exhaustive.
	if cpLive.Violations == 0 {
		t.Fatal("consequence prediction missed the live-snapshot violation")
	}
	if exLive.Violations > 0 && cpLive.States > exLive.States {
		t.Fatalf("consequence needed more states (%d) than exhaustive (%d)",
			cpLive.States, exLive.States)
	}
}

func TestTable1FindsBugsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results := must(Table1(Table1Config{Seed: 3, Nodes: 8, Duration: 4 * time.Minute, MCStates: 6000}))
	var total int
	for _, r := range results {
		total += len(r.Distinct)
	}
	if total == 0 {
		t.Fatal("deep online debugging found nothing at all")
	}
	out := FormatTable1(results)
	if !strings.Contains(out, "RandTree") {
		t.Fatal("format broken")
	}
}

func TestSteeringArmsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := SteeringConfig{Seed: 5, Nodes: 10, Duration: 6 * time.Minute, ChurnGap: 45 * time.Second, MCStates: 4000}
	bare := must(RandTreeSteering(cfg, NoProtection))
	protected := must(RandTreeSteering(cfg, SteeringAndISC))
	if bare.ActionsExecuted == 0 || protected.ActionsExecuted == 0 {
		t.Fatal("no actions executed")
	}
	// The qualitative claim: protection reduces ground-truth
	// inconsistencies.
	if bare.InconsistentStates == 0 {
		t.Skip("churn too mild to trigger inconsistencies in this window")
	}
	if protected.InconsistentStates > bare.InconsistentStates {
		t.Fatalf("protection increased inconsistencies: %d -> %d",
			bare.InconsistentStates, protected.InconsistentStates)
	}
	_ = FormatSteering([]SteeringResult{bare, protected})
}

func TestFig14Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := must(Fig14Paxos(Fig14Config{Seed: 7, Runs: 6, MaxGap: 30 * time.Second, MCStates: 8000}))
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Steering+r.ISC+r.Violated+r.Clean != r.Runs {
			t.Fatalf("outcomes do not sum to runs: %+v", r)
		}
		// The headline claim: most runs avoid the violation.
		if r.Violated > r.Runs/2 {
			t.Fatalf("%s: more than half the runs violated: %+v", r.Bug, r)
		}
	}
	_ = FormatFig14(res)
}

// TestTweakedControllerConfigsReachTheController pins same-seed outcomes
// recorded on the commit before the harnesses moved from DeployOptions
// fields to editing ControllerConfig's result: Figure 14's per-bug fault
// model (the two bugs' rows swap when it is lost), its checker latency (at
// 3 ms per state bug 1's predictions arrive too late and the ISC catches
// it), and the ISC under the ISC-only arm's debugging controller. The
// ISC-only row was re-recorded once when the steering experiment moved to
// Deployment.StartChurn's churn stream (it read 3,192 actions, 1,594 ISC
// blocks of 3,189 checks and no join time on its own churn loop).
func TestTweakedControllerConfigsReachTheController(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := Fig14Config{Seed: 7, Runs: 3, MaxGap: 10 * time.Second, MCStates: 3000, Workers: 1}
	slow := base
	slow.PerStateCost = 3 * time.Millisecond
	fig14 := []struct {
		cfg  Fig14Config
		want []Fig14Result
	}{
		{base, []Fig14Result{{Bug: "bug1", Steering: 2, Violated: 1, Runs: 3}, {Bug: "bug2", ISC: 2, Violated: 1, Runs: 3}}},
		{slow, []Fig14Result{{Bug: "bug1", ISC: 2, Violated: 1, Runs: 3}, {Bug: "bug2", ISC: 2, Violated: 1, Runs: 3}}},
	}
	for _, tc := range fig14 {
		if got := must(Fig14Paxos(tc.cfg)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Fig14Paxos(%+v) = %+v, want %+v", tc.cfg, got, tc.want)
		}
	}
	cfg := SteeringConfig{Seed: 5, Nodes: 10, Duration: 6 * time.Minute, ChurnGap: 45 * time.Second, MCStates: 4000, Workers: 1}
	want := SteeringResult{Mode: ISCOnly, ActionsExecuted: 3190, ActionsChanged: 1593, ISCChecks: 3188, ISCBlocks: 1593,
		MeanJoinTime: 100 * time.Millisecond}
	if got := must(RandTreeSteering(cfg, ISCOnly)); got != want {
		t.Errorf("ISC-only arm = %+v, want %+v", got, want)
	}
}

func TestFig17Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := must(Fig17Bullet(Fig17Config{Seed: 9, Nodes: 6, Blocks: 16, BlockSize: 32 << 10, Deadline: 10 * time.Minute}))
	if r.Completed[0] == 0 || r.Completed[1] == 0 {
		t.Fatalf("downloads did not complete: %+v", r.Completed)
	}
	// CrystalBall should not make it pathologically slower.
	if r.MeanSlowdown > 0.5 {
		t.Fatalf("slowdown %.0f%% too large", 100*r.MeanSlowdown)
	}
	_ = FormatFig17(r)
}

func TestOverheadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := must(Overhead(OverheadConfig{Seed: 11, Nodes: 10, Duration: time.Minute}))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanCheckpointRaw <= 0 {
			t.Fatalf("%s: no checkpoint size measured", r.System)
		}
		if r.PerNodeBps <= 0 {
			t.Fatalf("%s: no checkpoint bandwidth measured", r.System)
		}
	}
	_ = FormatOverhead(rows)
}

// TestCheckpointCompressionShrinksWireBytes: the checkpoint managers of a
// chord deployment's debugging controllers, collecting snapshots of their
// neighborhoods, put fewer bytes on the wire than the checkpoints they send
// hold: transfers are LZW-compressed.
func TestCheckpointCompressionShrinksWireBytes(t *testing.T) {
	d, err := scenario.Deploy("chord", scenario.DeployOptions{
		Seed:     1,
		Service:  scenario.Options{Nodes: 8, Fixed: true},
		Path:     simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9},
		Control:  scenario.Debug,
		MCStates: 300,
		Workers:  1,
		Workload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Sim.RunFor(30 * time.Second)
	var wire, raw int64
	for _, c := range d.Ctrls {
		wire += c.Manager().Stats.BytesSentWire
		raw += c.Manager().Stats.BytesSentRaw
	}
	if raw == 0 {
		t.Fatal("no checkpoint bytes sent")
	}
	if wire >= raw {
		t.Fatalf("checkpoints put %d bytes on the wire for %d raw", wire, raw)
	}
	t.Logf("checkpoint bytes: wire %d, raw %d", wire, raw)
}

// must unwraps a harness result; a harness error fails the test that asked
// for it.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
