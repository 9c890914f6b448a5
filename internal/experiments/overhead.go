package experiments

import (
	"time"

	"crystalball/internal/scenario"
	"crystalball/internal/simnet"
	"crystalball/internal/stats"
)

// OverheadConfig parameterises the checkpoint-overhead measurements.
type OverheadConfig struct {
	Seed     int64
	Nodes    int // paper: 100 logical nodes
	Duration time.Duration
	// Workers is the checker's worker-pool size (0 = GOMAXPROCS).
	Workers int
}

// OverheadRow reports one service's checkpoint costs (paper section 5.5:
// RandTree checkpoints ~176 B at ~803 bps/node, Chord ~1028 B at ~8224
// bps/node, Bullet′ ~3 kB compressed at ~30 kbps).
type OverheadRow struct {
	System             string
	MeanCheckpointRaw  float64 // bytes, uncompressed
	MeanCheckpointWire float64 // bytes on the wire (compressed, deduped)
	PerNodeBps         float64
	PaperCkptBytes     int
	PaperBps           float64
}

// Overhead measures checkpoint sizes and per-node checkpoint bandwidth for
// the three data-plane services with snapshots collected every 10 s. Every
// service is its fixed (bug-free) variant under debugging controllers,
// which checkpoint and collect their neighbourhoods as a deployment does.
func Overhead(cfg OverheadConfig) ([]OverheadRow, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 30
	}
	if cfg.Duration == 0 {
		cfg.Duration = 3 * time.Minute
	}
	bulletNodes := min(cfg.Nodes, 12)
	runs := []struct {
		name, system string
		opts         scenario.Options
		warmup       time.Duration
		paperBytes   int
		paperBps     float64
	}{
		{"randtree", "RandTree", scenario.Options{Nodes: cfg.Nodes, Degree: 4, Fixed: true},
			20 * time.Second, 176, 803},
		{"chord", "Chord", scenario.Options{Nodes: cfg.Nodes, Fixed: true},
			time.Duration(cfg.Nodes)*700*time.Millisecond + 10*time.Second, 1028, 8224},
		{"bulletprime", "Bullet'", scenario.Options{Nodes: bulletNodes, Blocks: 48, BlockSize: 32 << 10, Fixed: true},
			10 * time.Second, 3000, 30000},
	}
	var rows []OverheadRow
	for i, r := range runs {
		row, err := overheadRun(r.name, r.system, cfg, cfg.Seed+int64(i), r.opts, r.warmup)
		if err != nil {
			return nil, err
		}
		row.PaperCkptBytes, row.PaperBps = r.paperBytes, r.paperBps
		rows = append(rows, row)
	}
	return rows, nil
}

// overheadRun deploys the scenario under debugging controllers, lets the
// overlay form for warmup, and reports the sizes of the checkpoints the
// controllers' collection sent and its bandwidth over the cfg.Duration
// after the warm-up.
func overheadRun(name, system string, cfg OverheadConfig, seed int64, opts scenario.Options, warmup time.Duration) (OverheadRow, error) {
	d, err := scenario.Deploy(name, scenario.DeployOptions{
		Seed:     seed,
		Service:  opts,
		Control:  scenario.Debug,
		Workers:  cfg.Workers,
		Workload: true,
	})
	if err != nil {
		return OverheadRow{}, err
	}
	d.Sim.RunFor(warmup) // let the overlay form
	total := -d.Net.TotalBytesOut(simnet.KindCheckpoint)
	d.Sim.RunFor(cfg.Duration)
	total += d.Net.TotalBytesOut(simnet.KindCheckpoint)

	// Mean checkpoint sizes over the whole run: raw is the node's actual
	// state-encoding size; wire averages only over payload-carrying
	// responses (duplicate-suppressed responses transfer no state by
	// design, and once the overlay is stable they are all there is).
	raw, wire := &stats.Sample{}, &stats.Sample{}
	for _, c := range d.Ctrls {
		m := c.Manager()
		if sz := m.LatestCheckpointSize(); sz > 0 {
			raw.Add(float64(sz))
		}
		if payload := m.Stats.ResponsesSent - m.Stats.DupSuppressed; payload > 0 {
			wire.Add(float64(m.Stats.BytesSentWire) / float64(payload))
		}
	}
	return OverheadRow{
		System:             system,
		MeanCheckpointRaw:  raw.Mean(),
		MeanCheckpointWire: wire.Mean(),
		PerNodeBps:         stats.Rate(total, cfg.Duration) / float64(len(d.Nodes)),
	}, nil
}

// FormatOverhead renders the section 5.5 table.
func FormatOverhead(rows []OverheadRow) string {
	t := stats.Table{
		Title: "Section 5.5: checkpoint sizes and bandwidth",
		Header: []string{"system", "ckpt-raw(B)", "ckpt-wire(B)", "bps/node",
			"paper-ckpt(B)", "paper-bps"},
	}
	for _, r := range rows {
		t.Add(r.System, r.MeanCheckpointRaw, r.MeanCheckpointWire, r.PerNodeBps,
			r.PaperCkptBytes, r.PaperBps)
	}
	return t.String()
}
