package experiments

import (
	"time"

	"crystalball/internal/scenario"
	"crystalball/internal/services/paxos"
	"crystalball/internal/sim"
	"crystalball/internal/stats"
)

// Fig14Config parameterises the Paxos steering experiment.
type Fig14Config struct {
	Seed int64
	// Runs per injected bug (paper: 100).
	Runs int
	// MaxGap is the random inter-round delay bound (paper: U[0, 60 s]).
	MaxGap time.Duration
	// MCStates bounds each consequence-prediction run.
	MCStates int
	// Workers is the checker's worker-pool size (0 = GOMAXPROCS).
	Workers int
	// PerStateCost is the virtual checker latency per state; it creates
	// the race between prediction and the live bug (paper: the checker
	// needed ~6 s, so short gaps beat it and fall through to the ISC).
	PerStateCost time.Duration
}

// Fig14Outcome classifies one run.
type Fig14Outcome int

// Outcomes of one staged Paxos run (the bars of Figure 14).
const (
	// AvoidedBySteering: an installed event filter prevented the
	// violating handler from executing.
	AvoidedBySteering Fig14Outcome = iota
	// AvoidedByISC: the immediate safety check blocked it.
	AvoidedByISC
	// Violated: two values were chosen.
	Violated
	// NoViolation: the staged scenario happened not to produce the
	// inconsistency (and nothing intervened).
	NoViolation
)

// Fig14Result aggregates outcomes for one injected bug.
type Fig14Result struct {
	Bug      string
	Steering int
	ISC      int
	Violated int
	Clean    int
	Runs     int
}

// Fig14Paxos reproduces Figure 14: the staged Figure 13 scenario runs
// repeatedly with a random inter-round gap; CrystalBall must avoid the
// inconsistency by steering (when the checker's report lands before round
// 2) or by the immediate safety check (when it does not). The paper
// reports 87%/85% steering, 11% ISC and 2%/5% violations over 100 runs per
// bug.
func Fig14Paxos(cfg Fig14Config) ([]Fig14Result, error) {
	if cfg.Runs == 0 {
		cfg.Runs = 100
	}
	if cfg.MaxGap == 0 {
		cfg.MaxGap = 60 * time.Second
	}
	if cfg.MCStates == 0 {
		cfg.MCStates = 20000
	}
	if cfg.PerStateCost == 0 {
		// Tuned so a full round's checking latency lands around the
		// paper's ~6 s: short inter-round gaps beat the checker and
		// fall through to the immediate safety check.
		cfg.PerStateCost = 300 * time.Microsecond
	}
	var out []Fig14Result
	for _, bug := range []string{"bug1", "bug2"} {
		r := Fig14Result{Bug: bug, Runs: cfg.Runs}
		for i := 0; i < cfg.Runs; i++ {
			seed := cfg.Seed + int64(i)*7919
			gap := time.Duration(float64(cfg.MaxGap) * sim.New(seed).RNG("gap").Float64())
			outcome, err := runPaxosScenario(seed, bug, gap, cfg)
			if err != nil {
				return nil, err
			}
			switch outcome {
			case AvoidedBySteering:
				r.Steering++
			case AvoidedByISC:
				r.ISC++
			case Violated:
				r.Violated++
			default:
				r.Clean++
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// runPaxosScenario stages one Figure 13 run under full CrystalBall
// protection and classifies the outcome. The bug under test is the paxos
// scenario's variant; resets are only worth exploring for bug 2 (the
// lost-promise bug), so the scenario's fault model is overridden per bug.
func runPaxosScenario(seed int64, bug string, gap time.Duration, cfg Fig14Config) (Fig14Outcome, error) {
	sc := scenario.MustLookup("paxos")
	opts := scenario.DeployOptions{
		Seed:             seed,
		Service:          scenario.Options{Variant: bug},
		Control:          scenario.Steering,
		MCStates:         cfg.MCStates,
		Workers:          cfg.Workers,
		SnapshotInterval: 3 * time.Second,
	}
	ctrl, err := sc.ControllerConfig(opts)
	if err != nil {
		return NoViolation, err
	}
	ctrl.PerStateCost = cfg.PerStateCost
	ctrl.Check.ExploreResets = bug == "bug2"
	opts.Controller = &ctrl
	d, err := sc.Deploy(opts)
	if err != nil {
		return NoViolation, err
	}
	s := d.Sim
	a, b, c := d.Nodes[0], d.Nodes[1], d.Nodes[2]

	// Round 1: C disconnected; A proposes 0 (chosen by {A, B}).
	d.Net.PartitionNode(c.ID, true)
	a.App(paxos.Propose{Val: 0})
	s.RunFor(2 * time.Second)
	d.Net.PartitionNode(c.ID, false)
	if bug == "bug2" {
		b.Reset(true)
	}
	// Inter-round gap: the window in which the checker can predict.
	s.RunFor(gap)
	// Round 2: A disconnected; B proposes 1 (the paper's "Propose(B,1)").
	d.Net.PartitionNode(a.ID, true)
	b.App(paxos.Propose{Val: 1})
	s.RunFor(5 * time.Second)
	d.Net.PartitionNode(a.ID, false)
	s.RunFor(3 * time.Second)

	// Classify. Steering engages through any installed filter — the
	// earliest controllable event may be the proposer's own application
	// call, a message delivery, or a timer ("steer the execution as
	// early as possible").
	if !paxos.Properties.Holds(d.View()) {
		return Violated, nil
	}
	var filtersHit, iscBlocks int64
	for _, node := range d.Nodes {
		filtersHit += node.Stats.MessagesDropped + node.Stats.AppsBlocked + node.Stats.TimersDeferred
		iscBlocks += node.Stats.ISCBlocks
	}
	if filtersHit > 0 {
		return AvoidedBySteering, nil
	}
	if iscBlocks > 0 {
		return AvoidedByISC, nil
	}
	return NoViolation, nil
}

// FormatFig14 renders the outcome bars with the paper's reference numbers.
func FormatFig14(results []Fig14Result) string {
	t := stats.Table{
		Title:  "Figure 14: Paxos execution steering outcomes",
		Header: []string{"bug", "runs", "steering", "ISC", "violations", "no-violation", "paper(steer/ISC/viol)"},
	}
	refs := map[string]string{"bug1": "87/11/2", "bug2": "85/11/5 (of 100)"}
	for _, r := range results {
		t.Add(r.Bug, r.Runs, r.Steering, r.ISC, r.Violated, r.Clean, refs[r.Bug])
	}
	return t.String()
}
