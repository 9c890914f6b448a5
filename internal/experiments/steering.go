package experiments

import (
	"fmt"
	"time"

	"crystalball/internal/scenario"
	"crystalball/internal/stats"
)

// SteeringConfig parameterises the RandTree execution-steering experiment
// (paper section 5.4.1).
type SteeringConfig struct {
	Seed     int64
	Nodes    int           // paper: 25
	Duration time.Duration // paper: 1.4 h of churn
	ChurnGap time.Duration // paper: one leave+join per minute on average
	MCStates int           // 0 = the scenario's round budget (8,000)
	// Workers is the checker's worker-pool size (0 = GOMAXPROCS).
	Workers int
}

// SteeringMode selects which protections are active.
type SteeringMode int

// Steering experiment arms (the paper's three runs).
const (
	// NoProtection runs the buggy service bare.
	NoProtection SteeringMode = iota
	// ISCOnly runs only the immediate safety check.
	ISCOnly
	// SteeringAndISC runs execution steering with the ISC fallback.
	SteeringAndISC
)

func (m SteeringMode) String() string {
	return [...]string{"no CrystalBall", "ISC only", "steering + ISC"}[m]
}

// SteeringResult reports one arm's counters (the paper's section 5.4.1
// numbers: 121 inconsistent states bare; 325 ISC blocks; 480 predictions /
// 415 steered / 65 unhelpful / 160 ISC with both on; 0 violations; 2.77%
// of 14,956 actions changed; join times unchanged).
type SteeringResult struct {
	Mode                SteeringMode
	InconsistentStates  int64 // ground-truth states containing a violation
	ActionsExecuted     int64
	ActionsChanged      int64 // filter drops + deferrals + ISC blocks
	ISCChecks           int64
	ISCBlocks           int64
	ViolationsPredicted int64
	FiltersInstalled    int64
	SteeringUnhelpful   int64
	MeanJoinTime        time.Duration
}

// RandTreeSteering runs one arm of the section 5.4.1 experiment: a 25-node
// RandTree under churn with the documented bugs present, protected (or
// not) by CrystalBall.
func RandTreeSteering(cfg SteeringConfig, mode SteeringMode) (SteeringResult, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 25
	}
	if cfg.Duration == 0 {
		cfg.Duration = 30 * time.Minute
	}
	if cfg.ChurnGap == 0 {
		cfg.ChurnGap = time.Minute
	}
	sc := scenario.MustLookup("randtree")
	opts := scenario.DeployOptions{
		Seed:    cfg.Seed,
		Service: scenario.Options{Nodes: cfg.Nodes},
		Workers: cfg.Workers,
	}
	switch mode {
	case SteeringAndISC:
		opts.Control = scenario.Steering
		opts.MCStates = cfg.MCStates
	case ISCOnly:
		// The ISC-only arm runs the immediate safety check under a
		// debugging controller with no meaningful prediction budget.
		opts.Control = scenario.Debug
		opts.MCStates = 1
		ctrl, err := sc.ControllerConfig(opts)
		if err != nil {
			return SteeringResult{}, err
		}
		ctrl.EnableISC = true
		opts.Controller = &ctrl
	default:
		opts.Control = scenario.Bare
	}
	d, err := sc.Deploy(opts)
	if err != nil {
		return SteeringResult{}, err
	}
	truth := d.RecordGroundTruth()
	d.StartWorkload()
	d.StartChurn(cfg.ChurnGap)
	d.Sim.RunFor(cfg.Duration)

	res := SteeringResult{
		Mode:               mode,
		InconsistentStates: truth.Inconsistent,
		MeanJoinTime:       time.Duration(d.JoinTimes.Mean() * float64(time.Second)),
	}
	for _, node := range d.Nodes {
		res.ActionsExecuted += node.Stats.ActionsExecuted
		res.ActionsChanged += node.Stats.ActionsChanged()
		res.ISCChecks += node.Stats.ISCChecks
		res.ISCBlocks += node.Stats.ISCBlocks
	}
	for _, c := range d.Ctrls {
		res.ViolationsPredicted += c.Stats.ViolationsPredicted
		res.FiltersInstalled += c.Stats.FiltersInstalled
		res.SteeringUnhelpful += c.Stats.SteeringUnhelpful
	}
	return res, nil
}

// FormatSteering renders the three-arm comparison.
func FormatSteering(results []SteeringResult) string {
	t := stats.Table{
		Title: "RandTree execution steering (section 5.4.1)",
		Header: []string{"arm", "inconsistent-states", "actions", "changed", "changed%",
			"ISC-blocks", "predicted", "filters", "unhelpful", "mean-join"},
	}
	for _, r := range results {
		pct := 0.0
		if r.ActionsExecuted > 0 {
			pct = 100 * float64(r.ActionsChanged) / float64(r.ActionsExecuted)
		}
		t.Add(r.Mode.String(), r.InconsistentStates, r.ActionsExecuted, r.ActionsChanged,
			fmt.Sprintf("%.2f", pct), r.ISCBlocks, r.ViolationsPredicted,
			r.FiltersInstalled, r.SteeringUnhelpful, r.MeanJoinTime)
	}
	return t.String()
}
