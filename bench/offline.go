package main

import (
	"fmt"
	"sort"
	"strings"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// searchInput is what the generator hands the checker: a start state and a
// ready configuration. The program sees nothing else of the workload.
type searchInput struct {
	w     workload
	size  size
	start *mc.GState
	cfg   mc.Config
}

// buildSearchInput assembles the start state and checker configuration the
// way cmd/mcheck does with its default flags (resets on, connection breaks
// off, reduction on, every violation collected), bounded by the workload's
// depth or state budget, with the benchmark seed as the handler-randomness
// seed.
func buildSearchInput(w workload, sz size, seed int64) (*searchInput, error) {
	g, cfg, err := scenario.InitialState(w.service, scenario.Options{Nodes: w.nodes})
	if err != nil {
		return nil, err
	}
	cfg.Mode = w.mode
	cfg.Budget = mc.Budget{States: sz.states, Depth: sz.depth, Workers: checkerWorkers}
	cfg.ExploreResets = true
	cfg.ExploreConnBreaks = false
	cfg.Reduce = true
	cfg.Seed = seed
	return &searchInput{w: w, size: sz, start: g, cfg: cfg}, nil
}

// stoppedAtBound reports whether a search ended at the workload's bound and
// not at some other limit: a pass that stopped early did less work than its
// name says, whatever its rate.
func (in *searchInput) stoppedAtBound(res *mc.Result) error {
	if in.size.states > 0 && res.StatesExplored != in.size.states {
		return fmt.Errorf("stopped at %d states, bound is %d", res.StatesExplored, in.size.states)
	}
	if in.size.states == 0 && res.MaxDepthReached != in.size.depth {
		return fmt.Errorf("stopped at depth %d, bound is %d", res.MaxDepthReached, in.size.depth)
	}
	return nil
}

// violationSigs is the sorted set of violation signatures of a result.
func violationSigs(vs []mc.Violation) string {
	sigs := make([]string, len(vs))
	for i, v := range vs {
		sigs[i] = v.Signature()
	}
	sort.Strings(sigs)
	return strings.Join(sigs, ",")
}

// searchCounts are the counts every checker run reports at its boundary.
func searchCounts(res *mc.Result) map[string]float64 {
	return map[string]float64{
		"states":          float64(res.StatesExplored),
		"transitions":     float64(res.Transitions),
		"pruned":          float64(res.TransitionsPruned),
		"accounted_bytes": float64(res.PeakMemoryBytes),
		"violations":      float64(len(res.Violations)),
		"depth":           float64(res.MaxDepthReached),
	}
}

type offlineInstance struct{ in *searchInput }

func (o *offlineInstance) prepare(*tracer) error { return nil }

func (o *offlineInstance) run(tr *tracer, parent, pass int) (*passRecord, error) {
	s := mc.NewSearch(o.in.cfg)
	id := tr.start("mc.Search.Run", parent, pass)
	res := s.Run(o.in.start)
	counts := searchCounts(res)
	tr.end(id, counts)
	return &passRecord{
		states:      int64(res.StatesExplored),
		transitions: int64(res.Transitions),
		attempted:   1,
		sig:         fmt.Sprintf("states=%d transitions=%d violations=[%s]", res.StatesExplored, res.Transitions, violationSigs(res.Violations)),
		counts:      counts,
		result:      res,
	}, nil
}

// check fails a pass that stopped anywhere but at the configured bound,
// that differs from the cold pass of the same process (same seed, one
// worker: the search is deterministic), or that reports a violation whose
// path does not lead back to it.
func (o *offlineInstance) check(rec, cold *passRecord) []string {
	var reasons []string
	res := rec.result.(*mc.Result)
	if err := o.in.stoppedAtBound(res); err != nil {
		reasons = append(reasons, err.Error())
	}
	if rec.sig != cold.sig {
		reasons = append(reasons, fmt.Sprintf("differs from cold pass: %s vs %s", rec.sig, cold.sig))
	}
	s := mc.NewSearch(o.in.cfg)
	for i, v := range res.Violations {
		if err := replayViolation(s, o.in.start, v); err != nil {
			reasons = append(reasons, fmt.Sprintf("violation %d: %v", i+1, err))
		}
	}
	return reasons
}

// replayViolation re-executes a reported path through the public replay
// entry points. Search.Replay stops at the first violating state, which may
// be an earlier onset of another property, so the reported properties are
// checked on the state the full path reaches.
func replayViolation(s *mc.Search, start *mc.GState, v mc.Violation) error {
	if len(s.Replay(start, v.Path)) == 0 {
		return fmt.Errorf("%v: path of %d events replays to no violation", v.Properties, len(v.Path))
	}
	g := start
	for i, ev := range v.Path {
		if g = s.ApplyEvent(g, ev); g == nil {
			return fmt.Errorf("%v: event %d (%s) is not applicable on replay", v.Properties, i+1, ev.Describe())
		}
	}
	if g.Hash() != v.StateHash {
		return fmt.Errorf("%v: path reaches state %x, reported %x", v.Properties, g.Hash(), v.StateHash)
	}
	violated := s.NewExpander().Check(g)
	for _, want := range v.Properties {
		found := false
		for _, got := range violated {
			found = found || got == want
		}
		if !found {
			return fmt.Errorf("%v: reached state violates %v", v.Properties, violated)
		}
	}
	return nil
}
