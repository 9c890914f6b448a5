package experiments

import (
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/scenario"
	"crystalball/internal/services/randtree"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/snapshot"
)

// One testing.B benchmark per table and figure of the paper's evaluation
// (scaled down so `go test -bench=.` completes in minutes; cmd/experiments
// regenerates the full-scale tables), plus ablation benchmarks for the design
// choices DESIGN.md section 7 calls out. They are for measuring while you
// work; the numbers anybody records come from `go run ./bench`.

// BenchmarkTable1BugsFound runs the deep-online-debugging hunt (scaled).
func BenchmarkTable1BugsFound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := must(Table1(Table1Config{
			Seed: int64(i + 1), Nodes: 8, Duration: 3 * time.Minute, MCStates: 4000,
		}))
		var distinct int
		for _, r := range results {
			distinct += len(r.Distinct)
		}
		b.ReportMetric(float64(distinct), "distinct-bugs")
	}
}

// BenchmarkFig12ExhaustiveDepth measures the exhaustive-search depth sweep.
func BenchmarkFig12ExhaustiveDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := must(Fig12Exhaustive(Fig12Config{
			Seed: 1, Nodes: 5, MaxDepth: 5, MaxStates: 500000,
		}))
		b.ReportMetric(float64(pts[len(pts)-1].States), "states-at-max-depth")
	}
}

// BenchmarkFig15SearchMemory measures consequence-prediction memory growth.
func BenchmarkFig15SearchMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := Fig15Memory(Fig15Config{
			Seed: 1, MaxDepth: 5, MaxStates: 500000,
		})
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.MemBytes), "peak-bytes")
		b.ReportMetric(last.PerStateByte, "bytes/state")
	}
}

// BenchmarkDepthComparison measures the section 5.3 comparison.
func BenchmarkDepthComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := must(DepthComparison(1, time.Second, []int{5}, 0))
		for _, r := range rows {
			if r.Start == "live-snapshot" && r.Mode == "consequence" {
				b.ReportMetric(float64(r.States), "cp-states-to-violation")
			}
		}
	}
}

// BenchmarkRandTreeSteering runs one protected churn window (section 5.4.1).
func BenchmarkRandTreeSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := must(RandTreeSteering(SteeringConfig{
			Seed: int64(i + 1), Nodes: 10, Duration: 5 * time.Minute,
			ChurnGap: 45 * time.Second, MCStates: 4000,
		}, SteeringAndISC))
		b.ReportMetric(float64(res.InconsistentStates), "inconsistent-states")
		b.ReportMetric(float64(res.FiltersInstalled), "filters")
	}
}

// BenchmarkFig14PaxosSteering runs the staged Paxos scenarios (scaled).
func BenchmarkFig14PaxosSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := must(Fig14Paxos(Fig14Config{
			Seed: int64(i + 1), Runs: 4, MaxGap: 20 * time.Second, MCStates: 8000,
		}))
		var avoided, violated int
		for _, r := range results {
			avoided += r.Steering + r.ISC
			violated += r.Violated
		}
		b.ReportMetric(float64(avoided), "avoided")
		b.ReportMetric(float64(violated), "violated")
	}
}

// BenchmarkFig17BulletOverhead measures the Bullet' download with and
// without CrystalBall.
func BenchmarkFig17BulletOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(Fig17Bullet(Fig17Config{
			Seed: int64(i + 1), Nodes: 5, Blocks: 12, BlockSize: 32 << 10,
			Deadline: 8 * time.Minute,
		}))
		b.ReportMetric(100*r.MeanSlowdown, "slowdown-%")
	}
}

// BenchmarkCheckpointSizes measures section 5.5's checkpoint costs.
func BenchmarkCheckpointSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := must(Overhead(OverheadConfig{
			Seed: int64(i + 1), Nodes: 8, Duration: 40 * time.Second,
		}))
		for _, r := range rows {
			if r.System == "RandTree" {
				b.ReportMetric(r.MeanCheckpointRaw, "randtree-ckpt-bytes")
			}
		}
	}
}

// BenchmarkSnapshotCollection measures a full neighborhood snapshot round.
func BenchmarkSnapshotCollection(b *testing.B) {
	d, err := scenario.Deploy("chord", scenario.DeployOptions{
		Seed:        1,
		Service:     scenario.Options{Nodes: 10, Fixed: true},
		Path:        simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9},
		Control:     scenario.Bare,
		Checkpoints: true,
		Workload:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.Sim.RunFor(30 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		d.Mgrs[0].Collect(d.Nodes[0].Service().Neighbors(), func(*snapshot.Snapshot) { done = true })
		d.Sim.RunFor(3 * time.Second)
		if !done {
			b.Fatal("collection did not finish")
		}
	}
}

// --- ablations (DESIGN.md section 7) ----------------------------------------

// BenchmarkAblationLocalPruning quantifies the localExplored rule: states
// needed to find the Figure 2-class violation from a live snapshot with
// and without the pruning.
func BenchmarkAblationLocalPruning(b *testing.B) {
	for _, mode := range []mc.Mode{mc.Consequence, mc.Exhaustive} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := must(DepthComparison(1, 5*time.Second, []int{7}, 0))
				for _, r := range rows {
					if r.Start == "live-snapshot" && r.Mode == mode.String() {
						b.ReportMetric(float64(r.States), "states-to-violation")
						b.ReportMetric(float64(r.Elapsed.Microseconds()), "us-to-violation")
					}
				}
			}
		})
	}
}

// BenchmarkAblationFilterSafety measures steering with and without the
// filter-safety recheck.
func BenchmarkAblationFilterSafety(b *testing.B) {
	for _, check := range []bool{true, false} {
		name := "with-recheck"
		if !check {
			name = "without-recheck"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := steeringArm(int64(i+1), check, true)
				b.ReportMetric(float64(res.FiltersInstalled), "filters")
				b.ReportMetric(float64(res.InconsistentStates), "inconsistent-states")
			}
		})
	}
}

// BenchmarkAblationCompression measures checkpoint bytes with and without
// LZW compression + duplicate suppression.
func BenchmarkAblationCompression(b *testing.B) {
	for _, compress := range []bool{true, false} {
		name := "lzw"
		if !compress {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snapCfg := snapshot.DefaultConfig()
				snapCfg.Compress = compress
				d, err := scenario.Deploy("chord", scenario.DeployOptions{
					Seed:        int64(i + 1),
					Service:     scenario.Options{Nodes: 8, Fixed: true},
					Path:        simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9},
					Control:     scenario.Bare,
					Snapshot:    &snapCfg,
					Checkpoints: true,
					Workload:    true,
				})
				if err != nil {
					b.Fatal(err)
				}
				d.Sim.RunFor(15 * time.Second)
				for k := 0; k < 5; k++ {
					d.Mgrs[0].Collect(d.Nodes[0].Service().Neighbors(), func(*snapshot.Snapshot) {})
					d.Sim.RunFor(3 * time.Second)
				}
				b.ReportMetric(float64(d.Net.TotalBytesOut(simnet.KindCheckpoint)), "ckpt-bytes")
			}
		})
	}
}

// steeringArm runs a short protected churn window for the ablations. The
// rarely-used controller knobs (filter-safety recheck, path replay) are
// tweaked on a scenario-derived controller config and installed verbatim.
func steeringArm(seed int64, checkFilterSafety, replay bool) struct {
	FiltersInstalled   int64
	InconsistentStates int64
} {
	sc := scenario.MustLookup("randtree")
	opts := scenario.DeployOptions{
		Seed:     seed,
		Service:  scenario.Options{Nodes: 8},
		Control:  scenario.Steering,
		MCStates: 3000,
	}
	ctrl, err := sc.ControllerConfig(opts)
	if err != nil {
		panic(err)
	}
	ctrl.CheckFilterSafety = checkFilterSafety
	ctrl.ReplayPaths = replay
	opts.Controller = &ctrl
	d, err := sc.Deploy(opts)
	if err != nil {
		panic(err)
	}

	var out struct {
		FiltersInstalled   int64
		InconsistentStates int64
	}
	gt := props.NewView() // refilled per event; the simulator is single-threaded
	for _, node := range d.Nodes {
		node.OnEvent = func(sm.Event) {
			d.FillView(gt)
			if !randtree.Properties.Holds(gt) {
				out.InconsistentStates++
			}
		}
	}
	d.StartWorkload()
	d.StartChurn(40 * time.Second)
	d.Sim.RunFor(4 * time.Minute)
	for _, c := range d.Ctrls {
		out.FiltersInstalled += c.Stats.FiltersInstalled
	}
	return out
}

// BenchmarkISCSpeculation measures the immediate safety check's per-event
// cost (clone + speculative handler + property check).
func BenchmarkISCSpeculation(b *testing.B) {
	d, err := scenario.Deploy("randtree", scenario.DeployOptions{
		Seed:     1,
		Service:  scenario.Options{Nodes: 2},
		Path:     simnet.UniformPath{Latency: time.Millisecond, BwBps: 1e9},
		Control:  scenario.Bare,
		Workload: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	n1 := d.Nodes[0]
	d.Sim.RunFor(10 * time.Second)
	n1.EnableISC(randtree.Properties, func() *props.View { return props.NewView() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drive a message through the ISC path.
		d.Net.Send(2, 1, runtime.Envelope{Msg: randtree.Probe{}}, 12, simnet.KindService)
		d.Sim.RunFor(10 * time.Millisecond)
	}
	if n1.Stats.ISCChecks == 0 {
		b.Fatal("ISC never engaged")
	}
}
