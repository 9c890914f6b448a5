// Package experiments implements one harness per table and figure of the
// CrystalBall paper's evaluation (section 5). Every harness takes one
// Params, fills its zero fields with its own defaults, and returns records
// the stack already keeps: mc.Result, controller.Finding,
// scenario.GroundTruth with summed runtime and controller stats,
// stats.Sample. Experiments names each harness once, with the function that
// runs it and renders the rows or series the paper reports; cmd/experiments
// prints them and the package's tests assert their claims. All harnesses
// are deterministic for a fixed seed and scale with their Params, so the
// tests run scaled-down versions of the same code paths.
package experiments

import (
	"cmp"
	"fmt"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/services/bulletprime"
	"crystalball/internal/services/paxos"
	"crystalball/internal/services/randtree"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/stats"
)

// Params is the one input of every harness. A zero field takes the
// harness's default; Seed has none, and Workers 0 means GOMAXPROCS.
type Params struct {
	Seed     int64
	Nodes    int           // nodes per search or deployment
	Runs     int           // fig14: runs per injected bug
	Depth    int           // fig12, fig15: the deepest depth swept
	Duration time.Duration // virtual time per deployment
	Budget   time.Duration // fig12, depths: wall budget per search
	Workers  int           // checker worker-pool size
	States   int           // state bound per search or controller round
	ChurnGap time.Duration // randtree-steering: mean gap between churn events
	MaxGap   time.Duration // fig14: bound of the random inter-round gap
}

// or fills p's zero fields from d, a harness's defaults.
func (p Params) or(d Params) Params {
	p.Nodes = cmp.Or(p.Nodes, d.Nodes)
	p.Runs = cmp.Or(p.Runs, d.Runs)
	p.Depth = cmp.Or(p.Depth, d.Depth)
	p.Duration = cmp.Or(p.Duration, d.Duration)
	p.Budget = cmp.Or(p.Budget, d.Budget)
	p.States = cmp.Or(p.States, d.States)
	p.ChurnGap = cmp.Or(p.ChurnGap, d.ChurnGap)
	p.MaxGap = cmp.Or(p.MaxGap, d.MaxGap)
	return p
}

// Experiments names every experiment once, in the order `-exp all` runs
// them. Run runs the harness at p and renders its table.
var Experiments = []struct {
	ID  string
	Run func(p Params) (string, error)
}{
	{"fig12", table(fig12Exhaustive, formatFig12)},
	{"fig15", table(fig15Memory, formatFig15)},
	{"depths", table(depthComparison, formatDepths)},
	{"table1", table(table1, formatTable1)},
	{"randtree-steering", table(randTreeSteering, formatSteering)},
	{"fig14", table(fig14Paxos, formatFig14)},
	{"fig17", table(fig17Bullet, formatFig17)},
	{"overhead", table(overhead, formatOverhead)},
}

// table is an experiment's Run: the harness's records at p rendered by
// format, or the harness's error.
func table[R any](harness func(Params) (R, error), format func(Params, R) string) func(Params) (string, error) {
	return func(p Params) (string, error) {
		r, err := harness(p)
		if err != nil {
			return "", err
		}
		return format(p, r), nil
	}
}

// fig12Defaults: the paper's 5 nodes; it reaches depth 12-13 in hours.
var fig12Defaults = Params{Nodes: 5, Depth: 8, States: 2_000_000, Budget: 30 * time.Second}

// fig12Exhaustive reproduces Figure 12, the MaceMC baseline: elapsed time
// of exhaustive search from RandTree's initial state (every node unjoined,
// ready to issue Join app calls), one search per depth up to p.Depth. The
// shape to reproduce is exponential growth that makes depths beyond ~12
// infeasible. A depth the state or wall bound stops ends the sweep.
func fig12Exhaustive(p Params) ([]*mc.Result, error) {
	p = p.or(fig12Defaults)
	g, cfg, err := scenario.InitialState("randtree", scenario.Options{Nodes: p.Nodes})
	if err != nil {
		return nil, err
	}
	cfg.ExploreResets = false
	var out []*mc.Result
	for d := 1; d <= p.Depth; d++ {
		res := search(p, g, cfg, mc.Exhaustive, mc.Budget{States: p.States, Depth: d, Wall: p.Budget})
		out = append(out, res)
		if res.StopReason != mc.FrontierEmpty {
			break // every deeper depth would run into the same bound
		}
	}
	return out, nil
}

func formatFig12(p Params, res []*mc.Result) string {
	return formatSweep(fmt.Sprintf("Figure 12: exhaustive search time vs depth (RandTree, %d nodes)", p.or(fig12Defaults).Nodes), res)
}

// search runs one search of mode from g under cfg and budget b, at p's
// seed and worker count.
func search(p Params, g *mc.GState, cfg mc.Config, mode mc.Mode, b mc.Budget) *mc.Result {
	b.Workers = p.Workers
	cfg.Mode = mode
	cfg.Budget = b
	cfg.Seed = p.Seed
	return mc.NewSearch(cfg).Run(g)
}

// formatSweep renders a depth sweep, one search per depth from 1.
func formatSweep(title string, res []*mc.Result) string {
	t := stats.Table{Title: title, Header: []string{"depth", "checked-states", "elapsed", "mem-bytes", "bytes/state", "stop"}}
	for i, r := range res {
		t.Add(i+1, r.StatesExplored, r.Elapsed, r.PeakMemoryBytes, r.PerStateBytes, r.StopReason)
	}
	return t.String()
}

// fig15Memory reproduces Figures 15 and 16: the memory consumed by the
// consequence-prediction search tree as a function of depth (paper: to
// ~12, under 1 MB at 7-8), and the per-state footprint (paper: converging
// to ~150 bytes). The start state is a formed 5-node RandTree
// neighborhood, the same kind of snapshot the controller feeds the
// checker.
func fig15Memory(p Params) ([]*mc.Result, error) {
	p = p.or(Params{Depth: 8, States: 2_000_000})
	g, cfg := formedTreeState(5)
	var out []*mc.Result
	for d := 1; d <= p.Depth; d++ {
		out = append(out, search(p, g, cfg, mc.Consequence, mc.Budget{States: p.States, Depth: d}))
	}
	return out, nil
}

func formatFig15(_ Params, res []*mc.Result) string {
	return formatSweep("Figures 15/16: consequence-prediction memory vs depth", res)
}

// formedTreeState builds an n-node RandTree (at least 3) that has already
// converged — the kind of live state a neighborhood snapshot captures —
// and a checker configuration for it: RandTree's properties, with reset
// exploration on. Nodes form a binary heap (the children of node i are 2i
// and 2i+1) under a degree bound of 3, so every node keeps a spare child
// slot: a resetting node can rejoin directly under the root, which is the
// Figure 2 precondition.
func formedTreeState(n int) (*mc.GState, mc.Config) {
	factory := randtree.New(randtree.Config{Bootstrap: []sm.NodeID{1}, MaxChildren: 3})
	n = max(n, 3)
	g := mc.NewGState()
	for i := 1; i <= n; i++ {
		t := factory(sm.NodeID(i)).(*randtree.Tree)
		t.Joined = true
		t.Root = 1
		t.IsRoot = i == 1
		t.Parent = sm.NoNode
		if i > 1 {
			t.Parent = sm.NodeID(i / 2)
			t.Peers[t.Parent] = true
			t.Peers[1] = true
		}
		for c := 2 * i; c <= min(2*i+1, n); c++ {
			t.Children[sm.NodeID(c)] = true
			t.Peers[sm.NodeID(c)] = true
		}
		if i == 2 || i == 3 { // the root's two children know each other
			t.Siblings[sm.NodeID(5-i)] = true
			t.Peers[sm.NodeID(5-i)] = true
		}
		g.AddNode(sm.NodeID(i), t, sm.TimerSet{randtree.TimerRecovery})
	}
	return g, mc.Config{Props: randtree.Properties, Factory: factory, ExploreResets: true}
}

// depthsDefaults: each search gets 2 s of wall time.
var depthsDefaults = Params{Budget: 2 * time.Second}

// depthModes are the two searches the comparison runs per start and node
// count.
var depthModes = []mc.Mode{mc.Exhaustive, mc.Consequence}

// depthNodes are the node counts the comparison runs at: p.Nodes, or the
// paper's 5 and (scaled down from 100) 20.
func depthNodes(p Params) []int {
	if p.Nodes > 0 {
		return []int{p.Nodes}
	}
	return []int{5, 20}
}

// depthComparison reproduces the section 5.3 comparison of the depth each
// search reaches in p.Budget, along both of the paper's axes, one search
// per start, node count and mode, in that order:
//
//   - From the *initial* state (the MaceMC setup), exhaustive search's
//     reachable depth collapses as the node count grows (paper: depth 12
//     with 5 nodes, depth 1 with 100 after 17 hours) and the deep
//     Figure 2-class bugs stay out of reach; consequence prediction from
//     the initial state is intentionally useless too ("never exploring
//     states beyond the initialization phase" cuts both ways — there is no
//     live execution to follow).
//   - From a *live snapshot* (a formed tree), consequence prediction finds
//     the Figure 2-class violation within a small fraction of the states
//     and time exhaustive search needs, and the gap widens with scale.
func depthComparison(p Params) ([]*mc.Result, error) {
	p = p.or(depthsDefaults)
	var out []*mc.Result
	for _, n := range depthNodes(p) {
		g, cfg, err := scenario.InitialState("randtree", scenario.Options{Nodes: n})
		if err != nil {
			return nil, err
		}
		for _, mode := range depthModes {
			out = append(out, search(p, g, cfg, mode, mc.Budget{Wall: p.Budget}))
		}
	}
	for _, n := range depthNodes(p) {
		g, cfg := formedTreeState(n)
		cfg.Props = props.Set{randtree.PropChildrenSiblingsDisjoint}
		cfg.MaxResetsPerPath = 1
		for _, mode := range depthModes {
			out = append(out, search(p, g, cfg, mode, mc.Budget{Wall: p.Budget, Violations: 1}))
		}
	}
	return out, nil
}

func formatDepths(p Params, res []*mc.Result) string {
	p = p.or(depthsDefaults)
	t := stats.Table{Title: fmt.Sprintf("Section 5.3: exhaustive vs consequence prediction (budget %v)", p.Budget),
		Header: []string{"start", "nodes", "mode", "depth", "checked-states", "elapsed", "violations", "stop"}}
	for _, start := range []string{"initial", "live-snapshot"} {
		for _, n := range depthNodes(p) {
			for _, mode := range depthModes {
				r := res[0]
				res = res[1:]
				t.Add(start, n, mode, r.MaxDepthReached, r.StatesExplored, r.Elapsed, len(r.Violations), r.StopReason)
			}
		}
	}
	return t.String()
}

// table1Runs are Table 1's deployments with the paper's count of distinct
// bug classes. Bullet′'s state is heavy: it runs on at most 10 nodes with
// half the state budget (the paper's run found its bug within minutes).
var table1Runs = []struct {
	name, system string
	opts         scenario.Options
	churn        time.Duration
	paper        int
}{
	{"randtree", "RandTree", scenario.Options{}, 60 * time.Second, 7},
	{"chord", "Chord", scenario.Options{}, 60 * time.Second, 3},
	{"bulletprime", "Bullet'", scenario.Options{Blocks: 24, BlockSize: 32 << 10}, 90 * time.Second, 3},
}

// table1 reproduces Table 1: CrystalBall in deep online debugging mode
// runs against the buggy (as-shipped) RandTree, Chord and Bullet′ under
// churn, on p.Nodes nodes each (paper: 100 logical nodes for the large
// runs, 6 for the small ones) for p.Duration (paper: up to a day of wall
// time; violations typically surfaced within the hour). It returns each
// run's findings. Debugging observes, never intervenes: the immediate
// safety check stays off (the scenario's Control default).
func table1(p Params) ([][]controller.Finding, error) {
	p = p.or(Params{Nodes: 12, Duration: 10 * time.Minute, States: 12000})
	var out [][]controller.Finding
	for i, r := range table1Runs {
		opts, states := r.opts, p.States
		opts.Nodes = p.Nodes
		if r.name == "bulletprime" {
			opts.Nodes = min(p.Nodes, 10)
			states /= 2
		}
		d, err := scenario.Deploy(r.name, scenario.DeployOptions{
			Seed:             p.Seed + int64(i),
			Service:          opts,
			Control:          scenario.Debug,
			MCStates:         states,
			Workers:          p.Workers,
			SnapshotInterval: 15 * time.Second,
			Workload:         true,
			Churn:            r.churn,
		})
		if err != nil {
			return nil, err
		}
		d.Sim.RunFor(p.Duration)
		out = append(out, d.TotalFindings())
	}
	return out, nil
}

func formatTable1(_ Params, res [][]controller.Finding) string {
	t := stats.Table{Title: "Table 1: inconsistencies found in deep online debugging",
		Header: []string{"system", "distinct bug classes", "paper", "total findings"}}
	var found string
	for i, all := range res {
		distinct := controller.DistinctFindings(all)
		t.Add(table1Runs[i].system, len(distinct), table1Runs[i].paper, len(all))
		for _, f := range distinct {
			via := "?"
			if len(f.Path) > 0 {
				via = f.Path[len(f.Path)-1].Class()
			}
			found += fmt.Sprintf("  %s: %v via %s (depth %d)\n", table1Runs[i].system, f.Properties, via, len(f.Path))
		}
	}
	return t.String() + found
}

// steeringArms name the three runs of the section 5.4.1 experiment by
// their deployment's control mode: the buggy service bare; the immediate
// safety check alone, under a debugging controller with no meaningful
// prediction budget; and execution steering with the ISC fallback.
var steeringArms = [...]string{scenario.Bare: "no CrystalBall", scenario.Debug: "ISC only", scenario.Steering: "steering + ISC"}

// arm is one steering arm's records.
type arm struct {
	truth *scenario.GroundTruth
	nodes runtime.Stats    // summed over the nodes (nodeStats)
	ctrls controller.Stats // the prediction counters, summed over the controllers
	join  time.Duration    // the churned nodes' mean join time
}

// randTreeSteering runs the arms of steeringArms on a p.Nodes-node
// RandTree (paper: 25) with the documented bugs present, under churn with
// a mean gap of p.ChurnGap (paper: one leave and join per minute) for
// p.Duration (paper: 1.4 h). The paper's numbers: 121 inconsistent states
// bare; 325 ISC blocks; 480 predictions / 415 steered / 65 unhelpful / 160
// ISC with both on; 0 violations; 2.77% of 14,956 actions changed; join
// times unchanged.
func randTreeSteering(p Params) ([]arm, error) {
	p = p.or(Params{Nodes: 25, Duration: 30 * time.Minute, ChurnGap: time.Minute})
	sc := scenario.MustLookup("randtree")
	var out []arm
	for control := range steeringArms {
		opts := scenario.DeployOptions{
			Seed:     p.Seed,
			Service:  scenario.Options{Nodes: p.Nodes},
			Control:  scenario.Control(control),
			MCStates: p.States,
			Workers:  p.Workers,
		}
		if opts.Control == scenario.Debug {
			opts.MCStates = 1
			ctrl, err := sc.ControllerConfig(opts)
			if err != nil {
				return nil, err
			}
			ctrl.EnableISC = true
			opts.Controller = &ctrl
		}
		d, err := sc.Deploy(opts)
		if err != nil {
			return nil, err
		}
		r := arm{truth: d.RecordGroundTruth()}
		d.StartWorkload()
		d.StartChurn(p.ChurnGap)
		d.Sim.RunFor(p.Duration)
		r.nodes = nodeStats(d)
		r.join = time.Duration(d.JoinTimes.Mean() * float64(time.Second))
		for _, c := range d.Ctrls {
			r.ctrls.ViolationsPredicted += c.Stats.ViolationsPredicted
			r.ctrls.FiltersInstalled += c.Stats.FiltersInstalled
			r.ctrls.SteeringUnhelpful += c.Stats.SteeringUnhelpful
		}
		out = append(out, r)
	}
	return out, nil
}

// nodeStats sums the runtime.Stats of d's nodes.
func nodeStats(d *scenario.Deployment) runtime.Stats {
	var s runtime.Stats
	for _, n := range d.Nodes {
		s.ActionsExecuted += n.Stats.ActionsExecuted
		s.MessagesDropped += n.Stats.MessagesDropped
		s.TimersDeferred += n.Stats.TimersDeferred
		s.AppsBlocked += n.Stats.AppsBlocked
		s.ISCChecks += n.Stats.ISCChecks
		s.ISCBlocks += n.Stats.ISCBlocks
		s.Resets += n.Stats.Resets
		s.TransportErrors += n.Stats.TransportErrors
	}
	return s
}

func formatSteering(_ Params, arms []arm) string {
	t := stats.Table{Title: "RandTree execution steering (section 5.4.1)", Header: []string{"arm", "inconsistent-states",
		"actions", "changed", "changed%", "ISC-blocks", "predicted", "filters", "unhelpful", "mean-join"}}
	for i, r := range arms {
		pct := 100 * float64(r.nodes.ActionsChanged()) / float64(max(r.nodes.ActionsExecuted, 1))
		t.Add(steeringArms[i], r.truth.Inconsistent, r.nodes.ActionsExecuted, r.nodes.ActionsChanged(),
			fmt.Sprintf("%.2f", pct), r.nodes.ISCBlocks, r.ctrls.ViolationsPredicted,
			r.ctrls.FiltersInstalled, r.ctrls.SteeringUnhelpful, r.join)
	}
	return t.String()
}

// fig14Bugs are the two injected Paxos bugs, one row of Figure 14 each,
// with the paper's outcome shares (steering/ISC/violations, of 100 runs).
var fig14Bugs = []struct{ name, paper string }{{"bug1", "87/11/2"}, {"bug2", "85/11/5 (of 100)"}}

// The outcomes of one staged Paxos run (the bars of Figure 14), as indices
// of a bug's outcome counts.
const (
	steered    = iota // an installed event filter prevented the violating handler
	iscBlocked        // the immediate safety check blocked it
	violated          // two values were chosen
	clean             // the run happened not to produce the inconsistency
	outcomes
)

// fig14Paxos reproduces Figure 14: the staged Figure 13 scenario runs
// p.Runs times per bug with a random inter-round gap up to p.MaxGap (paper:
// U[0, 60 s]); CrystalBall must avoid the inconsistency by steering (when
// the checker's report lands before round 2) or by the immediate safety
// check (when it does not). It returns each bug's outcome counts.
func fig14Paxos(p Params) ([][outcomes]int, error) {
	p = p.or(Params{Runs: 100, MaxGap: 60 * time.Second, States: 20000})
	out := make([][outcomes]int, len(fig14Bugs))
	for b, bug := range fig14Bugs {
		for i := 0; i < p.Runs; i++ {
			seed := p.Seed + int64(i)*7919
			gap := time.Duration(float64(p.MaxGap) * sim.New(seed).RNG("gap").Float64())
			outcome, err := runPaxosScenario(seed, bug.name, gap, p)
			if err != nil {
				return nil, err
			}
			out[b][outcome]++
		}
	}
	return out, nil
}

// runPaxosScenario stages one Figure 13 run under full CrystalBall
// protection and classifies the outcome. The bug under test is the paxos
// scenario's variant; resets are only worth exploring for bug 2 (the
// lost-promise bug), so the scenario's fault model is overridden per bug.
// The checker's virtual latency is controller.DefaultConfig's: it creates
// the race between prediction and the live bug (paper: the checker needed
// ~6 s, so short gaps beat it and fall through to the ISC).
func runPaxosScenario(seed int64, bug string, gap time.Duration, p Params) (int, error) {
	sc := scenario.MustLookup("paxos")
	opts := scenario.DeployOptions{
		Seed:             seed,
		Service:          scenario.Options{Variant: bug},
		Control:          scenario.Steering,
		MCStates:         p.States,
		Workers:          p.Workers,
		SnapshotInterval: 3 * time.Second,
	}
	ctrl, err := sc.ControllerConfig(opts)
	if err != nil {
		return 0, err
	}
	ctrl.Check.ExploreResets = bug == "bug2"
	opts.Controller = &ctrl
	d, err := sc.Deploy(opts)
	if err != nil {
		return 0, err
	}
	a, b, c := d.Nodes[0], d.Nodes[1], d.Nodes[2]

	// Round 1: C disconnected; A proposes 0 (chosen by {A, B}).
	d.Net.PartitionNode(c.ID, true)
	a.App(paxos.Propose{Val: 0})
	d.Sim.RunFor(2 * time.Second)
	d.Net.PartitionNode(c.ID, false)
	if bug == "bug2" {
		b.Reset(true)
	}
	// Inter-round gap: the window in which the checker can predict.
	d.Sim.RunFor(gap)
	// Round 2: A disconnected; B proposes 1 (the paper's "Propose(B,1)").
	d.Net.PartitionNode(a.ID, true)
	b.App(paxos.Propose{Val: 1})
	d.Sim.RunFor(5 * time.Second)
	d.Net.PartitionNode(a.ID, false)
	d.Sim.RunFor(3 * time.Second)

	// Classify. Steering engages through any installed filter — the
	// earliest controllable event may be the proposer's own application
	// call, a message delivery, or a timer ("steer the execution as
	// early as possible").
	st := nodeStats(d)
	switch {
	case !paxos.Properties.Holds(d.View()):
		return violated, nil
	case st.MessagesDropped+st.AppsBlocked+st.TimersDeferred > 0:
		return steered, nil
	case st.ISCBlocks > 0:
		return iscBlocked, nil
	}
	return clean, nil
}

func formatFig14(_ Params, res [][outcomes]int) string {
	t := stats.Table{Title: "Figure 14: Paxos execution steering outcomes",
		Header: []string{"bug", "runs", "steering", "ISC", "violations", "no-violation", "paper(steer/ISC/viol)"}}
	for b, r := range res {
		runs := r[steered] + r[iscBlocked] + r[violated] + r[clean]
		t.Add(fig14Bugs[b].name, runs, r[steered], r[iscBlocked], r[violated], r[clean], fig14Bugs[b].paper)
	}
	return t.String()
}

// fig17Defaults: 16 downloading nodes (paper: 49 plus the source), and
// p.Duration is the download's deadline.
var fig17Defaults = Params{Nodes: 16, Duration: 20 * time.Minute, States: 3000}

// download is one Figure 17 arm's records: its nodes' download times in
// seconds, and its mean per-node checkpoint bandwidth in bps (0 bare).
type download struct {
	times stats.Sample
	bps   float64
}

// fig17Bullet reproduces Figure 17: a Bullet′ swarm downloads a 40-block
// file of 64 KiB blocks bare, then under CrystalBall monitoring. The shape
// to reproduce: the two download-time CDFs nearly overlap, with
// CrystalBall costing less than ~10% at ~30 kbps of checkpoints per node
// (about 3% of the 1 Mbps access link).
func fig17Bullet(p Params) ([]download, error) {
	p = p.or(fig17Defaults)
	sc := scenario.MustLookup("bulletprime")
	var out []download
	for _, monitored := range []bool{false, true} {
		opts := scenario.DeployOptions{
			Seed: p.Seed,
			Service: scenario.Options{
				Nodes:     p.Nodes + 1, // plus the source
				Fixed:     true,        // measure throughput, not bugs
				Blocks:    40,
				BlockSize: 64 << 10,
				Degree:    5,
			},
			// Paper: 5 Mbps in / 1 Mbps out access links; model the shared
			// bottleneck with a uniform path at the outbound rate.
			Path:     simnet.UniformPath{Latency: 50 * time.Millisecond, BwBps: 1e6, Loss: 0.002},
			MCStates: p.States,
			Workers:  p.Workers,
		}
		if monitored {
			opts.Control = scenario.Debug
			// The arm measures the monitored download, not the debugging
			// property set's transient phantom-block reports.
			ctrl, err := sc.ControllerConfig(opts)
			if err != nil {
				return nil, err
			}
			ctrl.Check.Props = bulletprime.Properties
			opts.Controller = &ctrl
		}
		d, err := sc.Deploy(opts)
		if err != nil {
			return nil, err
		}
		// Poll for completions each second until every node has the file.
		var r download
		done := make([]bool, len(d.Nodes))
		for t := time.Second; t <= p.Duration && r.times.N() < p.Nodes; t += time.Second {
			d.Sim.RunUntil(sim.Time(t))
			for i, node := range d.Nodes[1:] {
				if !done[i] && node.Service().(*bulletprime.Bullet).Complete {
					done[i] = true
					r.times.AddDuration(t)
				}
			}
		}
		d.Sim.RunUntil(sim.Time(p.Duration))
		r.bps = stats.Rate(d.Net.TotalBytesOut(simnet.KindCheckpoint), p.Duration) / float64(len(d.Nodes))
		out = append(out, r)
	}
	return out, nil
}

func formatFig17(p Params, res []download) string {
	bare, monitored := res[0].times, res[1].times
	t := stats.Table{Title: "Figure 17: Bullet' download times with and without CrystalBall",
		Header: []string{"fraction", "baseline(s)", "crystalball(s)"}}
	for _, f := range []float64{10, 25, 50, 75, 90, 100} {
		t.Add(fmt.Sprintf("%.0f%%", f), bare.Percentile(f), monitored.Percentile(f))
	}
	slowdown := 0.0
	if bare.N() > 0 && monitored.N() > 0 {
		slowdown = monitored.Mean()/bare.Mean() - 1
	}
	n := p.or(fig17Defaults).Nodes
	return t.String() +
		fmt.Sprintf("completed: baseline %d/%d, crystalball %d/%d\n", bare.N(), n, monitored.N(), n) +
		fmt.Sprintf("mean slowdown: %.1f%% (paper: <10%%)\n", 100*slowdown) +
		fmt.Sprintf("checkpoint bandwidth: %.0f bps/node (paper: ~30 kbps)\n", res[1].bps)
}

// overheadRuns are the services the section 5.5 table measures, each with
// its overlay's warm-up (a base plus a time per node) and the paper's
// checkpoint size (bytes) and per-node checkpoint bandwidth (bps).
// Bullet′ runs on at most 12 nodes.
var overheadRuns = []struct {
	name, system    string
	opts            scenario.Options
	warmup, perNode time.Duration
	paperBytes      int
	paperBps        float64
}{
	{"randtree", "RandTree", scenario.Options{Degree: 4}, 20 * time.Second, 0, 176, 803},
	{"chord", "Chord", scenario.Options{}, 10 * time.Second, 700 * time.Millisecond, 1028, 8224},
	{"bulletprime", "Bullet'", scenario.Options{Blocks: 48, BlockSize: 32 << 10}, 10 * time.Second, 0, 3000, 30000},
}

// overhead measures, per run of overheadRuns, the mean raw checkpoint
// size, the mean bytes on the wire per checkpoint sent and the per-node
// checkpoint bandwidth in bps over p.Duration after the warm-up, on
// p.Nodes nodes (paper: 100 logical nodes). Every service is its fixed
// (bug-free) variant under debugging controllers, which checkpoint and
// collect their neighbourhoods as a deployment does.
func overhead(p Params) ([][3]float64, error) {
	p = p.or(Params{Nodes: 30, Duration: 3 * time.Minute})
	var out [][3]float64
	for i, r := range overheadRuns {
		opts := r.opts
		opts.Nodes = p.Nodes
		opts.Fixed = true
		if r.name == "bulletprime" {
			opts.Nodes = min(p.Nodes, 12)
		}
		d, err := scenario.Deploy(r.name, scenario.DeployOptions{
			Seed:     p.Seed + int64(i),
			Service:  opts,
			Control:  scenario.Debug,
			Workers:  p.Workers,
			Workload: true,
		})
		if err != nil {
			return nil, err
		}
		d.Sim.RunFor(r.warmup + time.Duration(p.Nodes)*r.perNode) // let the overlay form
		total := -d.Net.TotalBytesOut(simnet.KindCheckpoint)
		d.Sim.RunFor(p.Duration)
		total += d.Net.TotalBytesOut(simnet.KindCheckpoint)

		// Mean checkpoint sizes over the whole run: raw is the node's
		// actual state-encoding size; wire averages only over
		// payload-carrying responses (duplicate-suppressed responses
		// transfer no state by design, and once the overlay is stable they
		// are all there is).
		var raw, wire stats.Sample
		for _, c := range d.Ctrls {
			m := c.Manager()
			if sz := m.LatestCheckpointSize(); sz > 0 {
				raw.Add(float64(sz))
			}
			if payload := m.Stats.ResponsesSent - m.Stats.DupSuppressed; payload > 0 {
				wire.Add(float64(m.Stats.BytesSentWire) / float64(payload))
			}
		}
		out = append(out, [3]float64{raw.Mean(), wire.Mean(), stats.Rate(total, p.Duration) / float64(len(d.Nodes))})
	}
	return out, nil
}

func formatOverhead(_ Params, res [][3]float64) string {
	t := stats.Table{Title: "Section 5.5: checkpoint sizes and bandwidth",
		Header: []string{"system", "ckpt-raw(B)", "ckpt-wire(B)", "bps/node", "paper-ckpt(B)", "paper-bps"}}
	for i, r := range res {
		t.Add(overheadRuns[i].system, r[0], r[1], r[2], overheadRuns[i].paperBytes, overheadRuns[i].paperBps)
	}
	return t.String()
}
