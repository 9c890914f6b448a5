package experiments

import (
	"fmt"
	"time"

	"crystalball/internal/scenario"
	"crystalball/internal/services/bulletprime"
	"crystalball/internal/simnet"
	"crystalball/internal/stats"
)

// Fig17Config parameterises the Bullet′ overhead experiment.
type Fig17Config struct {
	Seed int64
	// Nodes downloading (paper: 49 plus the source).
	Nodes int
	// Blocks and BlockSize define the file (paper: 20 MB).
	Blocks    int
	BlockSize int
	// Deadline bounds the simulated download.
	Deadline time.Duration
	// MCStates bounds the controller's checker when enabled.
	MCStates int
	// Workers is the checker's worker-pool size (0 = GOMAXPROCS).
	Workers int
}

// Fig17Result carries both arms' download-time CDFs plus the checkpoint
// overhead figures of section 5.5.
type Fig17Result struct {
	Baseline    *stats.Sample // download times, seconds
	CrystalBall *stats.Sample
	// CheckpointBps is the mean per-node checkpoint bandwidth in the
	// CrystalBall arm (paper: ~30 kbps, about 3% of the 1 Mbps access
	// link).
	CheckpointBps float64
	// MeanSlowdown is the relative increase in mean download time
	// (paper: < 10%).
	MeanSlowdown float64
	Completed    [2]int // baseline, crystalball
	Nodes        int
}

// Fig17Bullet reproduces Figure 17: the download-time CDF of a Bullet′
// swarm with and without CrystalBall monitoring. The shape to reproduce:
// the two CDFs nearly overlap, with CrystalBall costing less than ~10%.
func Fig17Bullet(cfg Fig17Config) (Fig17Result, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 16
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 40
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 64 << 10
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 20 * time.Minute
	}
	if cfg.MCStates == 0 {
		cfg.MCStates = 3000
	}
	res := Fig17Result{Nodes: cfg.Nodes}
	var err error
	if res.Baseline, res.Completed[0], _, err = runBulletArm(cfg, false); err != nil {
		return res, err
	}
	if res.CrystalBall, res.Completed[1], res.CheckpointBps, err = runBulletArm(cfg, true); err != nil {
		return res, err
	}
	if res.Baseline.N() > 0 && res.CrystalBall.N() > 0 {
		res.MeanSlowdown = res.CrystalBall.Mean()/res.Baseline.Mean() - 1
	}
	return res, nil
}

func runBulletArm(cfg Fig17Config, withCB bool) (*stats.Sample, int, float64, error) {
	n := cfg.Nodes + 1 // plus the source
	sc := scenario.MustLookup("bulletprime")
	opts := scenario.DeployOptions{
		Seed: cfg.Seed,
		Service: scenario.Options{
			Nodes:     n,
			Fixed:     true, // measure throughput, not bugs
			Blocks:    cfg.Blocks,
			BlockSize: cfg.BlockSize,
			Degree:    5,
		},
		// Paper: 5 Mbps in / 1 Mbps out access links; model the shared
		// bottleneck with a uniform path at the outbound rate.
		Path:     simnet.UniformPath{Latency: 50 * time.Millisecond, BwBps: 1e6, Loss: 0.002},
		MCStates: cfg.MCStates,
		Workers:  cfg.Workers,
	}
	if withCB {
		opts.Control = scenario.Debug
		// The overhead arms measure the monitored download, not the
		// debugging property set's transient phantom-block reports.
		ctrl, err := sc.ControllerConfig(opts)
		if err != nil {
			return nil, 0, 0, err
		}
		ctrl.Check.Props = bulletprime.Properties
		opts.Controller = &ctrl
	}
	d, err := sc.Deploy(opts)
	if err != nil {
		return nil, 0, 0, err
	}
	s := d.Sim

	times := &stats.Sample{}
	done := make(map[int]bool)
	// Poll for completions each second.
	var poll func()
	poll = func() {
		for i, node := range d.Nodes {
			if i == 0 || done[i] {
				continue
			}
			if node.Service().(*bulletprime.Bullet).Complete {
				done[i] = true
				times.AddDuration(time.Duration(s.Now()))
			}
		}
		if len(done) < cfg.Nodes && time.Duration(s.Now()) < cfg.Deadline {
			s.After(time.Second, poll)
		}
	}
	s.After(time.Second, poll)
	s.RunFor(cfg.Deadline)

	// A bare arm sends no checkpoint bytes: its rate is 0.
	bps := stats.Rate(d.Net.TotalBytesOut(simnet.KindCheckpoint), time.Duration(s.Now())) / float64(n)
	return times, len(done), bps, nil
}

// FormatFig17 renders both CDFs plus the overhead summary.
func FormatFig17(r Fig17Result) string {
	t := stats.Table{
		Title:  "Figure 17: Bullet' download times with and without CrystalBall",
		Header: []string{"fraction", "baseline(s)", "crystalball(s)"},
	}
	for _, f := range []float64{10, 25, 50, 75, 90, 100} {
		t.Add(fmt.Sprintf("%.0f%%", f),
			r.Baseline.Percentile(f), r.CrystalBall.Percentile(f))
	}
	out := t.String()
	out += fmt.Sprintf("completed: baseline %d/%d, crystalball %d/%d\n",
		r.Completed[0], r.Nodes, r.Completed[1], r.Nodes)
	out += fmt.Sprintf("mean slowdown: %.1f%% (paper: <10%%)\n", 100*r.MeanSlowdown)
	out += fmt.Sprintf("checkpoint bandwidth: %.0f bps/node (paper: ~30 kbps)\n", r.CheckpointBps)
	return out
}
