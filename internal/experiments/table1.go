package experiments

import (
	"fmt"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/scenario"
	"crystalball/internal/stats"
)

// Table1Config parameterises the deep-online-debugging bug hunt.
type Table1Config struct {
	Seed int64
	// Nodes per service deployment (paper: 100 logical nodes for the
	// large runs, 6 for the small ones).
	Nodes int
	// Duration of virtual time per service (paper: up to a day of wall
	// time; violations typically surfaced within the hour).
	Duration time.Duration
	// MCStates bounds each consequence-prediction run.
	MCStates int
	// Workers is the checker's worker-pool size (0 = GOMAXPROCS).
	Workers int
}

// Table1Result reports distinct bug classes found per system.
type Table1Result struct {
	System   string
	Findings []controller.Finding
	Distinct []controller.Finding
}

// Table1 reproduces the paper's Table 1: CrystalBall in deep online
// debugging mode runs against the buggy (as-shipped) implementations of
// RandTree, Chord and Bullet′ under churn, and reports the distinct
// inconsistency classes predicted (paper: RandTree 7, Chord 3, Bullet′ 3).
// All three deployments are the same scenario.Deploy call with a
// different registry name.
func Table1(cfg Table1Config) ([]Table1Result, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 12
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Minute
	}
	if cfg.MCStates == 0 {
		cfg.MCStates = 12000
	}
	bulletNodes := cfg.Nodes
	if bulletNodes > 10 {
		bulletNodes = 10 // Bullet′ state is heavy; the paper's run found its bug within minutes
	}
	runs := []struct {
		name, system string
		opts         scenario.Options
		mcStates     int
		churn        time.Duration
	}{
		{"randtree", "RandTree", scenario.Options{Nodes: cfg.Nodes}, cfg.MCStates, 60 * time.Second},
		{"chord", "Chord", scenario.Options{Nodes: cfg.Nodes}, cfg.MCStates, 60 * time.Second},
		// Half the state budget for Bullet′: its states are large.
		{"bulletprime", "Bullet'", scenario.Options{Nodes: bulletNodes, Blocks: 24, BlockSize: 32 << 10},
			cfg.MCStates / 2, 90 * time.Second},
	}
	var out []Table1Result
	for i, r := range runs {
		res, err := table1Run(r.name, r.system, cfg, cfg.Seed+int64(i), r.opts, r.mcStates, r.churn)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// table1Run deploys one scenario in deep-online-debugging mode under churn
// and collects its findings. Debugging observes, never intervenes: the
// immediate safety check stays off (the scenario's Control default).
func table1Run(name, system string, cfg Table1Config, seed int64, opts scenario.Options, mcStates int, churn time.Duration) (Table1Result, error) {
	d, err := scenario.Deploy(name, scenario.DeployOptions{
		Seed:             seed,
		Service:          opts,
		Control:          scenario.Debug,
		MCStates:         mcStates,
		Workers:          cfg.Workers,
		SnapshotInterval: 15 * time.Second,
		Workload:         true,
		Churn:            churn,
	})
	if err != nil {
		return Table1Result{}, err
	}
	d.Sim.RunFor(cfg.Duration)
	all := d.TotalFindings()
	return Table1Result{System: system, Findings: all, Distinct: controller.DistinctFindings(all)}, nil
}

// FormatTable1 renders Table 1 alongside the paper's numbers.
func FormatTable1(results []Table1Result) string {
	paper := map[string]int{"RandTree": 7, "Chord": 3, "Bullet'": 3}
	t := stats.Table{
		Title:  "Table 1: inconsistencies found in deep online debugging",
		Header: []string{"system", "distinct bug classes", "paper", "total findings"},
	}
	for _, r := range results {
		t.Add(r.System, len(r.Distinct), paper[r.System], len(r.Findings))
	}
	s := t.String()
	for _, r := range results {
		for _, f := range r.Distinct {
			s += fmt.Sprintf("  %s: %v via %s (depth %d)\n", r.System, f.Properties, lastKind(f), len(f.Path))
		}
	}
	return s
}

func lastKind(f controller.Finding) string {
	if len(f.Path) == 0 {
		return "?"
	}
	return f.Path[len(f.Path)-1].Class()
}
