package main

import (
	"fmt"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/simnet"
)

// maxHarvest bounds the states a traced run keeps for the layer probes.
const maxHarvest = 2000

// liveInstance deploys the scenario afresh for every pass and drives it for
// the workload's virtual minutes, one Sim.RunFor slice per minute.
type liveInstance struct {
	w    workload
	size size
	seed int64
	sc   *scenario.Scenario
	opts scenario.DeployOptions

	// harvested are the start states (and the configuration of the first)
	// the controllers handed to the CheckRound seam during traced passes:
	// the sample the layer probes run on.
	harvested   []*mc.GState
	harvestedAt *mc.Config
}

func liveOptions(w workload, seed int64, control scenario.Control) scenario.DeployOptions {
	return scenario.DeployOptions{
		Seed:     liveSeedBase + seed,
		Service:  scenario.Options{Nodes: w.nodes},
		Control:  control,
		MCStates: liveMCStates,
		Workers:  checkerWorkers,
		Workload: true,
		Churn:    liveChurnMean,
	}
}

// buildLive is the live workload's set-up: resolve the scenario and deploy
// it once, which is what a crystalball user pays before the first virtual
// second runs. The deployment itself is dropped; every pass deploys its own.
func buildLive(w workload, sz size, seed int64) (*liveInstance, error) {
	sc, ok := scenario.Lookup(w.service)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", w.service)
	}
	li := &liveInstance{w: w, size: sz, seed: seed, sc: sc, opts: liveOptions(w, seed, scenario.Steering)}
	if _, err := sc.Deploy(li.opts); err != nil {
		return nil, err
	}
	return li, nil
}

func (li *liveInstance) prepare(*tracer) error { return nil }

// liveCounts sums the public counters of one finished deployment.
func liveCounts(d *scenario.Deployment) map[string]float64 {
	n := make(map[string]float64)
	for _, c := range d.Ctrls {
		s, mgr := c.Stats, c.Manager()
		n["states"] += float64(s.StatesExplored)
		n["rounds"] += float64(s.Rounds)
		n["snapshot_failures"] += float64(s.SnapshotFailures)
		n["checker_failures"] += float64(s.CheckerFailures)
		n["filters_installed"] += float64(s.FiltersInstalled)
		n["filter_unsafe"] += float64(s.FilterUnsafe)
		n["replay_reinstalls"] += float64(s.ReplayReinstalls)
		n["mc_virtual_s"] += s.MCVirtualTime.Seconds()
		n["snapshot_bytes"] += float64(mgr.Stats.BytesSentWire)
		n["checkpoint_bytes"] += float64(mgr.LatestCheckpointSize()) / float64(len(d.Ctrls))
	}
	for _, node := range d.Nodes {
		n["actions"] += float64(node.Stats.ActionsExecuted)
		n["dropped"] += float64(node.Stats.MessagesDropped)
		n["isc_checks"] += float64(node.Stats.ISCChecks)
		n["isc_blocks"] += float64(node.Stats.ISCBlocks)
		n["msgs_out"] += float64(d.Net.MessagesOut(node.ID))
	}
	n["bytes_service"] = float64(d.Net.TotalBytesOut(simnet.KindService))
	n["bytes_checkpoint"] = float64(d.Net.TotalBytesOut(simnet.KindCheckpoint))
	n["bytes_control"] = float64(d.Net.TotalBytesOut(simnet.KindControl))
	n["consistent_at_exit"] = b2f(d.Props.Holds(d.View()))
	return n
}

func (li *liveInstance) run(tr *tracer, parent, pass int) (*passRecord, error) {
	opts := li.opts
	// seam accumulates what crossed the CheckRound seam in a traced pass.
	var seam struct {
		calls, states, transitions, pruned, accounted float64
		slice                                         int
	}
	// One traced pass fills the probe sample; later ones would only repeat
	// it, since every pass deploys the same seed.
	harvesting := len(li.harvested) == 0
	if tr != nil {
		cfg, err := li.sc.ControllerConfig(opts)
		if err != nil {
			return nil, err
		}
		// The wrapper runs exactly what the controller's embedded engine
		// runs (mc.NewSearch(cfg).Run(start)), so a traced pass does the
		// same work as an untraced one; check compares them.
		cfg.CheckRound = func(c mc.Config, start *mc.GState) (*mc.Result, error) {
			id := tr.start("controller.CheckRound", seam.slice, pass)
			res := mc.NewSearch(c).Run(start)
			tr.end(id, searchCounts(res))
			seam.calls++
			seam.states += float64(res.StatesExplored)
			seam.transitions += float64(res.Transitions)
			seam.pruned += float64(res.TransitionsPruned)
			seam.accounted += float64(res.PeakMemoryBytes)
			if harvesting && len(li.harvested) < maxHarvest {
				if li.harvestedAt == nil {
					li.harvestedAt = &c
				}
				li.harvested = append(li.harvested, start)
			}
			return res, nil
		}
		opts.Controller = &cfg
	}

	id := tr.start("scenario.Deploy", parent, pass)
	d, err := li.sc.Deploy(opts)
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	for m := 0; m < li.size.minutes; m++ {
		seam.slice = tr.start("sim.RunFor", parent, pass)
		d.Sim.RunFor(liveSlice)
		tr.end(seam.slice, nil)
	}

	counts := liveCounts(d)
	counts["virtual_s"] = (time.Duration(li.size.minutes) * liveSlice).Seconds()
	counts["seam_calls"] = seam.calls
	counts["seam_states"] = seam.states
	counts["transitions"] = seam.transitions
	counts["pruned"] = seam.pruned
	counts["accounted_bytes"] = seam.accounted
	return &passRecord{
		states:      int64(counts["states"]),
		transitions: int64(seam.transitions),
		// One op is one controller round that got a snapshot; a round
		// whose checker failed is a failed op. Snapshot collections that
		// time out under churn are the system working as designed and are
		// reported as snapshot.failure_share, not as failures.
		attempted: int64(counts["rounds"]),
		failed:    int64(counts["checker_failures"]),
		sig: fmt.Sprintf("rounds=%.0f states=%.0f filters=%.0f actions=%.0f",
			counts["rounds"], counts["states"], counts["filters_installed"], counts["actions"]),
		counts: counts,
	}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// check fails every round of a pass that differs from the cold pass: the
// deployment is a deterministic function of its seed, so the same seed must
// give the same rounds, explored states, filters and executed actions.
func (li *liveInstance) check(rec, cold *passRecord) []string {
	if rec.sig != cold.sig {
		rec.failed = rec.attempted
		return []string{fmt.Sprintf("differs from cold pass: %s vs %s", rec.sig, cold.sig)}
	}
	return nil
}

// runBare drives the same deployment with no controllers for the same
// virtual time, under a span: the ceiling on what sim, simnet and runtime
// work can buy the steered run.
func (li *liveInstance) runBare(tr *tracer) error {
	d, err := li.sc.Deploy(liveOptions(li.w, li.seed, scenario.Bare))
	if err != nil {
		return err
	}
	virtual := time.Duration(li.size.minutes) * liveSlice
	id := tr.start("sim.bare_pass", 0, setupPass)
	d.Sim.RunFor(virtual)
	tr.end(id, map[string]float64{"virtual_s": virtual.Seconds()})
	return nil
}
