package scenario

import (
	"fmt"
	"strings"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// GroundTruth is what a live run actually passed through, judged by the
// scenario's own Props on the whole system after every executed handler —
// the paper's "states containing inconsistencies" (section 5.4.1). It
// counts the same thing whatever supervises the run, so a bare and a
// steered deployment at the same seed compare directly.
type GroundTruth struct {
	// Events counts executed handlers on every node.
	Events int64
	// Inconsistent counts the events after which some property failed.
	Inconsistent int64
	// Failed counts, per property of Props (same order), the events after
	// which that property failed.
	Failed []int64
	// Episodes counts runs of consecutive inconsistent events; Longest is
	// the longest run's length in events.
	Episodes, Longest int64

	props props.Set
	run   int64 // length of the episode in progress
}

// RecordGroundTruth installs the deployment's ground-truth hook on every
// node and returns the record it fills. Install it before StartWorkload so
// the forming overlay is counted too. The hook only reads: a run executes
// the same handlers with and without it.
func (d *Deployment) RecordGroundTruth() *GroundTruth {
	g := &GroundTruth{Failed: make([]int64, len(d.Scenario.Props)), props: d.Scenario.Props}
	view := props.NewView() // refilled per event: the simulator is single-threaded
	observe := func(sm.Event) {
		d.FillView(view)
		g.Events++
		consistent := true
		for i, p := range g.props {
			if !p.Check(view) {
				g.Failed[i]++
				consistent = false
			}
		}
		if consistent {
			g.run = 0
			return
		}
		g.Inconsistent++
		if g.run == 0 {
			g.Episodes++
		}
		g.run++
		g.Longest = max(g.Longest, g.run)
	}
	for _, node := range d.Nodes {
		node.OnEvent = observe
	}
	return g
}

// Share is the fraction of events after which the system was inconsistent.
func (g *GroundTruth) Share() float64 {
	if g.Events == 0 {
		return 0
	}
	return float64(g.Inconsistent) / float64(g.Events)
}

// String renders the record on one line: the counts, the inconsistent
// share, and every property that ever failed with its count.
func (g *GroundTruth) String() string {
	var failed []string
	for i, n := range g.Failed {
		if n > 0 {
			failed = append(failed, fmt.Sprintf("%s=%d", g.props[i].Name, n))
		}
	}
	return fmt.Sprintf("ground truth: events=%d inconsistent=%d (%.1f%%) episodes=%d longest=%d failed[%s]",
		g.Events, g.Inconsistent, 100*g.Share(), g.Episodes, g.Longest, strings.Join(failed, " "))
}
