package main

import (
	"math/rand"
	"runtime"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Layer probes time the modules' public functions one at a time over a
// seeded sample of states taken from the workload itself, so a traced run
// can say what one clone, one encode, one property check or one transition
// costs on this workload's states without a span inside the program.

const (
	probeSample = 2000 // states per sample
	probeSweeps = 3    // sweeps per probe; the fastest one is reported
	replayCases = 200  // paths timed through Search.Replay
	replaySteps = 6    // events per replayed path
)

// enabled flattens the transitions enabled at g in a deterministic order:
// network events first, then each node's internal actions by node id.
func enabled(s *mc.Search, g *mc.GState) []sm.Event {
	network, internal := s.EnabledEvents(g)
	all := network
	for _, id := range g.Nodes() {
		all = append(all, internal[id]...)
	}
	return all
}

// walkSample harvests n states by seeded random walks from root. A walk
// restarts at the root after depth events — the depth the workload's search
// reached — so the sample covers the depths the search covers: states deep
// in a search are bigger than the ones near its root.
func walkSample(s *mc.Search, root *mc.GState, rng *rand.Rand, n, depth int) []*mc.GState {
	sample := make([]*mc.GState, 0, n)
	for len(sample) < n {
		g := root
		for step := 0; step < depth && len(sample) < n; step++ {
			events := enabled(s, g)
			if len(events) == 0 {
				break
			}
			next := s.ApplyEvent(g, events[rng.Intn(len(events))])
			if next == nil {
				break
			}
			g = next
			sample = append(sample, g)
		}
	}
	return sample
}

// replayCase is one (root, path) pair for Search.Replay. Every state on the
// path is consistent, so Replay executes the whole path instead of stopping
// at a violation.
type replayCase struct {
	root *mc.GState
	path []sm.Event
}

func buildReplayCases(s *mc.Search, roots []*mc.GState, rng *rand.Rand) []replayCase {
	x := s.NewExpander()
	var cases []replayCase
	// Bounded attempts: a workload whose every state violates would
	// otherwise never fill the quota.
	for attempt := 0; len(cases) < replayCases && attempt < 4*replayCases; attempt++ {
		root := roots[attempt%len(roots)]
		if len(x.Check(root)) > 0 {
			continue
		}
		g := root
		var path []sm.Event
		for len(path) < replaySteps {
			events := enabled(s, g)
			if len(events) == 0 {
				break
			}
			ev := events[rng.Intn(len(events))]
			next := s.ApplyEvent(g, ev)
			if next == nil || len(x.Check(next)) > 0 {
				break
			}
			g, path = next, append(path, ev)
		}
		if len(path) > 0 {
			cases = append(cases, replayCase{root: root, path: path})
		}
	}
	return cases
}

// sweep runs body probeSweeps times, one span per sweep. body returns the
// counts of the sweep; "ops" is the number of timed calls.
func sweep(tr *tracer, parent int, name string, body func() map[string]float64) {
	for i := 0; i < probeSweeps; i++ {
		id := tr.start("probe:"+name, parent, setupPass)
		counts := body()
		tr.end(id, counts)
	}
}

// probeSink keeps probe results alive so the calls are not optimised away.
var probeSink int

// runProbes times each public function over the sample. cfg is the checker
// configuration the workload's searches ran with; roots are the states
// replay paths start from.
func runProbes(tr *tracer, cfg mc.Config, sample, roots []*mc.GState, seed int64) {
	// The passes before left gigabytes of garbage; collected now, it is not
	// swept on the probes' time.
	runtime.GC()
	parent := tr.start("probe", 0, setupPass)
	defer func() { tr.end(parent, map[string]float64{"sample": float64(len(sample))}) }()
	s := mc.NewSearch(cfg)
	rng := newRNG(seed)

	// Inputs every probe needs are prepared outside the timed sweeps.
	type nodeRef struct {
		id   sm.NodeID
		ns   *mc.NodeState
		data []byte
	}
	var nodes []nodeRef
	events := make([][]sm.Event, len(sample))
	nEvents := 0
	for i, g := range sample {
		for _, id := range g.Nodes() {
			ns := g.Node(id)
			nodes = append(nodes, nodeRef{id: id, ns: ns, data: sm.EncodeFullState(ns.Svc, ns.Timers)})
		}
		events[i] = enabled(s, g)
		nEvents += len(events[i])
	}
	cases := buildReplayCases(s, roots, rng)

	sweep(tr, parent, "sm.EncodeFullState", func() map[string]float64 {
		bytes := 0
		for _, n := range nodes {
			bytes += len(sm.EncodeFullState(n.ns.Svc, n.ns.Timers))
		}
		return map[string]float64{"ops": float64(len(nodes)), "bytes": float64(bytes)}
	})
	sweep(tr, parent, "sm.DecodeFullState", func() map[string]float64 {
		failed := 0
		for _, n := range nodes {
			if _, _, err := sm.DecodeFullState(cfg.Factory, n.id, n.data); err != nil {
				failed++
			}
		}
		return map[string]float64{"ops": float64(len(nodes)), "failed": float64(failed)}
	})
	sweep(tr, parent, "sm.Service.Clone", func() map[string]float64 {
		for _, n := range nodes {
			if n.ns.Svc.Clone() != nil {
				probeSink++
			}
		}
		return map[string]float64{"ops": float64(len(nodes))}
	})
	sweep(tr, parent, "sm.EncodeService", func() map[string]float64 {
		bytes := 0
		for _, n := range nodes {
			bytes += len(sm.EncodeService(n.ns.Svc))
		}
		return map[string]float64{"ops": float64(len(nodes)), "bytes": float64(bytes)}
	})
	view := props.NewView()
	sweep(tr, parent, "props.Check", func() map[string]float64 {
		violating := 0
		for _, g := range sample {
			g.FillView(view)
			violated := cfg.Props.Check(view)
			violated = cfg.GlobalProps.AppendViolated(violated, props.Global(view))
			if len(violated) > 0 {
				violating++
			}
		}
		return map[string]float64{"ops": float64(len(sample)), "violating": float64(violating)}
	})
	// Enumeration is timed through the pooled Expander, the public form the
	// engines themselves call per state; Search.EnabledEvents allocates
	// fresh containers per call and would overstate what a search pays.
	x := s.NewExpander()
	sweep(tr, parent, "mc.Expander.Events", func() map[string]float64 {
		n := 0
		for _, g := range sample {
			x.Events(g, func(sm.Event) { n++ })
		}
		return map[string]float64{"ops": float64(len(sample)), "events": float64(n)}
	})
	sweep(tr, parent, "mc.Search.ApplyEvent", func() map[string]float64 {
		applied := 0
		for i, g := range sample {
			for _, ev := range events[i] {
				if s.ApplyEvent(g, ev) != nil {
					applied++
				}
			}
		}
		return map[string]float64{"ops": float64(nEvents), "applied": float64(applied)}
	})
	sweep(tr, parent, "mc.GState.FullHash", func() map[string]float64 {
		mismatched := 0
		for _, g := range sample {
			if g.FullHash() != g.Hash() {
				mismatched++
			}
		}
		return map[string]float64{"ops": float64(len(sample)), "mismatched": float64(mismatched)}
	})
	sweep(tr, parent, "mc.Search.Replay", func() map[string]float64 {
		steps, violated := 0, 0
		for _, c := range cases {
			if len(s.Replay(c.root, c.path)) > 0 {
				violated++
			}
			steps += len(c.path)
		}
		return map[string]float64{"ops": float64(steps), "violated": float64(violated)}
	})
	enc := sm.NewEncoder()
	sweep(tr, parent, "dist.DescribeEvent", func() map[string]float64 {
		for i := range sample {
			for _, ev := range events[i] {
				probeSink += int(dist.DescribeEvent(ev, enc).Kind)
			}
		}
		return map[string]float64{"ops": float64(nEvents)}
	})
}

// newRNG is the only way the harness makes randomness: a private source
// seeded from the benchmark seed, never the process-global one.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
