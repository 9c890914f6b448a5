package scenario_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/runtime"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sm"
)

// TestDebugObservesWithoutPerturbing is a differential oracle in the style of
// MET (Zhang et al.): a deep-online-debugging deployment only watches — its
// controllers checkpoint, collect snapshots and run the checker, but steer
// nothing — so with the same seed it must execute, node by node, exactly the
// handler invocations of the bare deployment and end in the same states. A
// difference means observation changed what it observes: checkpoint traffic
// reached the service (a transport error met by a control send handed to a
// handler, a connection the service relies on reopened or torn down) and with
// it every prediction a debugging run makes, and the bare baseline steering
// is compared against.
func TestDebugObservesWithoutPerturbing(t *testing.T) {
	cases := []struct {
		name     string
		nodes    int
		duration time.Duration
		seeds    []int64
	}{
		{"chord", 12, 20 * time.Minute, []int64{41, 42, 43}},
		{"randtree", 12, 10 * time.Minute, []int64{5, 6}},
		{"bulletprime", 6, 5 * time.Minute, []int64{41, 42}},
		{"paxos", 3, 10 * time.Minute, []int64{1, 2}},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			bare := observe(t, c.name, seed, c.nodes, c.duration, scenario.Bare)
			debug := observe(t, c.name, seed, c.nodes, c.duration, scenario.Debug)
			for i := range bare {
				b, d := bare[i], debug[i]
				if n := firstDifference(b.events, d.events); n >= 0 {
					t.Errorf("%s seed %d node %d: event %d of %d/%d differs: bare %s, debug %s",
						c.name, seed, i+1, n, len(b.events), len(d.events), keyAt(b.events, n), keyAt(d.events, n))
					continue
				}
				if !bytes.Equal(b.final, d.final) {
					t.Errorf("%s seed %d node %d: same %d events, different final state", c.name, seed, i+1, len(b.events))
				}
			}
		}
	}
}

// TestGroundTruthObservesWithoutPerturbing: the ground-truth recorder only
// reads the system it judges, so a steered deployment ends with the same
// runtime and controller counters with the recorder as without it. Steered,
// a perturbation would move the rounds, the filters and the blocked actions
// with everything the recorder compares bare against.
func TestGroundTruthObservesWithoutPerturbing(t *testing.T) {
	for _, c := range []struct {
		name string
		run  time.Duration
	}{{"chord", 20 * time.Minute}, {"randtree", 10 * time.Minute}} {
		counters := func(record bool) ([]runtime.Stats, []controller.Stats) {
			d, err := scenario.Deploy(c.name, scenario.DeployOptions{
				Seed:     43,
				Service:  scenario.Options{Nodes: 12},
				Control:  scenario.Steering,
				MCStates: 300,
				Workers:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if record {
				d.RecordGroundTruth()
			}
			d.StartWorkload()
			d.StartChurn(30 * time.Second)
			d.Sim.RunFor(c.run)
			var rs []runtime.Stats
			var cs []controller.Stats
			for i, node := range d.Nodes {
				rs = append(rs, node.Stats)
				cs = append(cs, d.Ctrls[i].Stats)
			}
			return rs, cs
		}
		rs, cs := counters(false)
		recRS, recCS := counters(true)
		if !reflect.DeepEqual(rs, recRS) {
			t.Errorf("%s: runtime stats with the recorder %+v, without %+v", c.name, recRS, rs)
		}
		if !reflect.DeepEqual(cs, recCS) {
			t.Errorf("%s: controller stats with the recorder %+v, without %+v", c.name, recCS, cs)
		}
	}
}

// observed is one node's run: every handler it executed, in order, and its
// final state.
type observed struct {
	events []sm.EventKey
	final  []byte
}

// observe deploys name under control with churn and the join workload and
// records every node's run.
func observe(t *testing.T, name string, seed int64, nodes int, d time.Duration, control scenario.Control) []observed {
	t.Helper()
	dep, err := scenario.Deploy(name, scenario.DeployOptions{
		Seed:     seed,
		Service:  scenario.Options{Nodes: nodes},
		Control:  control,
		MCStates: 300,
		Workers:  1,
		Churn:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]observed, len(dep.Nodes))
	for i, node := range dep.Nodes {
		o := &out[i]
		node.OnEvent = func(ev sm.Event) { o.events = append(o.events, ev.EventKey) }
	}
	dep.StartWorkload()
	dep.Sim.RunFor(d)
	for i, node := range dep.Nodes {
		out[i].final = sm.EncodeFullState(node.View())
	}
	return out
}

// firstDifference returns the first index where a and b differ, -1 if none.
func firstDifference(a, b []sm.EventKey) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// keyAt renders events[i], or "end" past the last one.
func keyAt(events []sm.EventKey, i int) string {
	if i < len(events) {
		return events[i].String()
	}
	return "end"
}
