package experiments

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/simnet"
)

// goldenParams are the flags internal/experiments/testdata/all.golden was
// recorded at: `experiments -exp all -nodes 6 -duration 3m -runs 2 -depth 5
// -budget 300ms -workers 1`. That run's fig12 ignored -nodes and ran at
// its default 5 nodes, so the golden test runs fig12 without Nodes.
var goldenParams = Params{Seed: 42, Nodes: 6, Duration: 3 * time.Minute, Runs: 2, Depth: 5,
	Budget: 300 * time.Millisecond, Workers: 1}

// TestEveryExperimentMatchesItsGolden runs every entry of Experiments at
// goldenParams and compares what `-exp all` prints with the golden, less
// the wall-clock facts (deterministicLines). A row a wall budget stopped
// in either output matches any row: how far a search gets in its budget
// depends on the host (under the race detector, the live-snapshot
// exhaustive search of depths runs into its 300 ms).
func TestEveryExperimentMatchesItsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range Experiments {
		p := goldenParams
		if e.ID == "fig12" {
			p.Nodes = 0
		}
		out, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&got, "### %s\n%s\n", e.ID, out)
	}
	g, w := deterministicLines(got.String()), deterministicLines(string(want))
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] && g[i] != wallStopped && w[i] != wallStopped {
			t.Fatalf("deterministic line %d differs from the golden\ngot:  %q\nwant: %q\nfull output:\n%s",
				i, g[min(i, len(g)-1)], w[min(i, len(w)-1)], got.String())
		}
	}
}

// wallStopped stands for a table row whose search a wall budget stopped.
const wallStopped = "(stopped by the wall budget)"

// deterministicLines strips the wall-clock facts from experiment output:
// the elapsed column of every table that has one, and the cells of such a
// table's rows that a wall budget stopped (each becomes wallStopped).
// Separator lines go, and cells are joined by one space, so column widths
// do not matter.
func deterministicLines(out string) []string {
	var lines []string
	elapsed := -1
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			elapsed = -1 // a table ends at its blank line
			continue
		case strings.Trim(line, "- ") == "":
			continue
		case slices.Contains(f, "elapsed"):
			elapsed = slices.Index(f, "elapsed")
		}
		if elapsed >= 0 && len(f) > elapsed {
			f = slices.Delete(f, elapsed, elapsed+1)
			if f[len(f)-1] == "wall" {
				f = []string{wallStopped}
			}
		}
		lines = append(lines, strings.Join(f, " "))
	}
	return lines
}

func TestFig12ExhaustiveGrowth(t *testing.T) {
	pts := must(fig12Exhaustive(Params{Seed: 1, Nodes: 4, Depth: 5, States: 200000}))
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	// The hallmark of Figure 12: state counts (and so elapsed time) grow
	// superlinearly with depth.
	for i := 1; i < len(pts); i++ {
		if pts[i].StatesExplored < pts[i-1].StatesExplored {
			t.Fatalf("states shrank from %d at depth %d to %d", pts[i-1].StatesExplored, i, pts[i].StatesExplored)
		}
	}
	if pts[4].StatesExplored < 8*pts[1].StatesExplored {
		t.Fatalf("no exponential growth: depth2=%d depth5=%d", pts[1].StatesExplored, pts[4].StatesExplored)
	}
}

// TestFig12RunsAtParamsNodes: Figure 12's node count is Params.Nodes, and
// its title says so: depth 4 checks 100 states at 4 nodes, 191 at the
// default 5.
func TestFig12RunsAtParamsNodes(t *testing.T) {
	out := must(table(fig12Exhaustive, formatFig12)(Params{Seed: 42, Nodes: 4, Depth: 4}))
	if !strings.Contains(out, "(RandTree, 4 nodes)") || !regexp.MustCompile(`(?m)^4 +100 `).MatchString(out) {
		t.Fatalf("want the 4-node sweep, 100 states at depth 4:\n%s", out)
	}
}

// TestFig12EndsAtTheFirstBoundDepth: a depth the state bound stops is the
// last of the sweep — every deeper one would run the same capped search —
// and the table says why each depth ended and that its states are the
// ones checked.
func TestFig12EndsAtTheFirstBoundDepth(t *testing.T) {
	pts := must(fig12Exhaustive(Params{Seed: 1, Nodes: 4, Depth: 8, States: 500}))
	last := pts[len(pts)-1]
	if last.StopReason != "states" || len(pts) == 8 {
		t.Fatalf("the sweep ran %d depths and the last stopped on %q: want it to end at the first depth the 500-state bound stops", len(pts), last.StopReason)
	}
	for i, p := range pts[:len(pts)-1] {
		if p.StopReason != mc.FrontierEmpty {
			t.Fatalf("depth %d stopped on %q and the sweep went on", i+1, p.StopReason)
		}
	}
	if table := formatSweep("x", pts); !strings.Contains(table, "stop") || !strings.Contains(table, "checked-states") {
		t.Fatalf("the table does not print the stop reason and the checked states:\n%s", table)
	}
}

func TestFig15MemoryGrowsAndPerStateStabilises(t *testing.T) {
	pts := must(fig15Memory(Params{Seed: 1, Depth: 5, States: 150000}))
	last := pts[len(pts)-1]
	if last.PeakMemoryBytes <= pts[0].PeakMemoryBytes {
		t.Fatalf("memory did not grow with depth: %d bytes at depth 1, %d at depth %d", pts[0].PeakMemoryBytes, last.PeakMemoryBytes, len(pts))
	}
	// Figure 16's shape: per-state cost settles in the hundreds of bytes —
	// tree, tables and frontier counted at what they allocate.
	if last.PerStateBytes < 100 || last.PerStateBytes > 1000 {
		t.Fatalf("per-state bytes implausible: %v", last.PerStateBytes)
	}
}

func TestDepthComparisonConsequenceWins(t *testing.T) {
	budget := 2 * time.Second
	if testing.Short() {
		budget = 500 * time.Millisecond
	}
	res := must(depthComparison(Params{Seed: 1, Nodes: 5, Budget: budget}))
	if len(res) != 4 {
		t.Fatalf("results = %d, want 4", len(res))
	}
	// Initial then live snapshot, exhaustive then consequence.
	exLive, cpLive := res[2], res[3]
	// From the live snapshot, consequence prediction must find the
	// Figure 2-class violation with no more states than exhaustive.
	if len(cpLive.Violations) == 0 {
		t.Fatal("consequence prediction missed the live-snapshot violation")
	}
	if len(exLive.Violations) > 0 && cpLive.StatesExplored > exLive.StatesExplored {
		t.Fatalf("consequence needed more states (%d) than exhaustive (%d)",
			cpLive.StatesExplored, exLive.StatesExplored)
	}
}

func TestTable1FindsBugsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var total int
	for _, findings := range must(table1(Params{Seed: 3, Nodes: 8, Duration: 4 * time.Minute, States: 6000})) {
		total += len(controller.DistinctFindings(findings))
	}
	if total == 0 {
		t.Fatal("deep online debugging found nothing at all")
	}
}

func TestSteeringArmsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	arms := must(randTreeSteering(Params{Seed: 5, Nodes: 10, Duration: 6 * time.Minute, ChurnGap: 45 * time.Second, States: 4000}))
	bare, protected := arms[0], arms[2]
	if bare.nodes.ActionsExecuted == 0 || protected.nodes.ActionsExecuted == 0 {
		t.Fatal("no actions executed")
	}
	// The qualitative claim: protection reduces ground-truth
	// inconsistencies.
	if bare.truth.Inconsistent == 0 {
		t.Skip("churn too mild to trigger inconsistencies in this window")
	}
	if protected.truth.Inconsistent > bare.truth.Inconsistent {
		t.Fatalf("protection increased inconsistencies: %d -> %d",
			bare.truth.Inconsistent, protected.truth.Inconsistent)
	}
}

func TestFig14Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := must(fig14Paxos(Params{Seed: 7, Runs: 6, MaxGap: 30 * time.Second, States: 8000}))
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for b, r := range res {
		if r[steered]+r[iscBlocked]+r[violated]+r[clean] != 6 {
			t.Fatalf("outcomes do not sum to runs: %v", r)
		}
		// The headline claim: most runs avoid the violation.
		if r[violated] > 3 {
			t.Fatalf("%s: more than half the runs violated: %v", fig14Bugs[b].name, r)
		}
	}
}

// TestTweakedControllerConfigsReachTheController pins same-seed outcomes
// recorded on the commit before the harnesses moved from DeployOptions
// fields to editing ControllerConfig's result: Figure 14's per-bug fault
// model (the two bugs' rows swap when it is lost), and the ISC under the
// ISC-only arm's debugging controller. The ISC-only row was re-recorded
// once when the steering experiment moved to Deployment.StartChurn's churn
// stream (it read 3,192 actions, 1,594 ISC blocks of 3,189 checks and no
// join time on its own churn loop). Figure 14's checker latency is
// controller.DefaultConfig's, whose effect on a report's arrival
// controller's TestVirtualMCLatencyDelaysReport pins.
func TestTweakedControllerConfigsReachTheController(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fig14 := must(fig14Paxos(Params{Seed: 7, Runs: 3, MaxGap: 10 * time.Second, States: 3000, Workers: 1}))
	// bug1: 2 steered, 1 violated; bug2: 2 blocked by the ISC, 1 violated.
	if want := [][outcomes]int{{2, 0, 1, 0}, {0, 2, 1, 0}}; !reflect.DeepEqual(fig14, want) {
		t.Errorf("fig14 outcomes = %v, want %v", fig14, want)
	}
	arms := must(randTreeSteering(Params{Seed: 5, Nodes: 10, Duration: 6 * time.Minute, ChurnGap: 45 * time.Second, States: 4000, Workers: 1}))
	isc := arms[1]
	got := []any{isc.truth.Inconsistent, isc.nodes.ActionsExecuted, isc.nodes.ActionsChanged(),
		isc.nodes.ISCChecks, isc.nodes.ISCBlocks, isc.ctrls, isc.join}
	want := []any{int64(0), int64(3190), int64(1593), int64(3188), int64(1593), controller.Stats{}, 100 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ISC-only arm (inconsistent, actions, changed, ISC checks, ISC blocks, controller stats, mean join) = %v, want %v", got, want)
	}
}

func TestFig17Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	arms := must(fig17Bullet(Params{Seed: 9, Nodes: 6, Duration: 10 * time.Minute}))
	bare, monitored := arms[0].times, arms[1].times
	if bare.N() == 0 || monitored.N() == 0 {
		t.Fatalf("downloads did not complete: %d bare, %d monitored", bare.N(), monitored.N())
	}
	// CrystalBall should not make it pathologically slower.
	if slowdown := monitored.Mean()/bare.Mean() - 1; slowdown > 0.5 {
		t.Fatalf("slowdown %.0f%% too large", 100*slowdown)
	}
}

func TestOverheadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := must(overhead(Params{Seed: 11, Nodes: 10, Duration: time.Minute}))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0] <= 0 {
			t.Fatalf("%s: no checkpoint size measured", overheadRuns[i].system)
		}
		if r[2] <= 0 {
			t.Fatalf("%s: no checkpoint bandwidth measured", overheadRuns[i].system)
		}
	}
}

// TestCheckpointCompressionShrinksWireBytes: the checkpoint managers of a
// chord deployment's debugging controllers, collecting snapshots of their
// neighborhoods, put fewer bytes on the wire than the checkpoints they send
// hold: transfers are LZW-compressed. As in the overhead experiment, a
// payload response's checkpoint is counted at the size of the responder's
// newest one; the snapshot package's tests compare a response with the exact
// checkpoint it compresses.
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
		m := c.Manager()
		wire += m.Stats.BytesSentWire
		raw += (m.Stats.ResponsesSent - m.Stats.DupSuppressed) * int64(m.LatestCheckpointSize())
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
