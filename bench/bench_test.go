package main

import (
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// TestBenchmarkJSONDeclaresWhatTheHarnessPrints keeps BENCHMARK.json and the
// harness in step: same workloads, same metric names, same units.
func TestBenchmarkJSONDeclaresWhatTheHarnessPrints(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	sameNames(t, "workloads, in order", declared, have)

	check := func(what string, specs []metricSpec, units map[string]string, bounded bool) {
		var names []string
		for _, m := range specs {
			names = append(names, m.Name)
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric name %q is not a legal name", what, m.Name)
			}
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: unit %q declared, harness prints %q", what, m.Name, m.Unit, units[m.Name])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", what, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", what, m.Name, m.Bound)
			}
		}
		sort.Strings(names)
		sameNames(t, what+" metric names", names, keys(units))
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits, true)
	check("per_layer", spec.PerLayer, perLayerUnits, false)
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not a legal name", w.name)
		}
	}
}

// TestSmokeEveryWorkload runs all five workloads at smoke size — seed 1
// traced, seed 2 untraced — and requires what a full run requires: every
// check passes, every declared metric is printed and no other, the trace
// file re-derives the printed table, and the workloads that exist to
// exercise a check really exercise it.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			traced := seed == 1
			o := runOptions{w: w, seed: seed, smoke: true, traced: traced, outDir: t.TempDir()}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d %v", w.name, seed, res.correct, res.attempted, res.failed, res.reasons)
			}
			units := endToEndUnits
			if traced {
				units = perLayerUnits
			}
			sameNames(t, w.name+" printed metrics", keys(res.metrics), keys(units))
			for name, m := range res.metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s seed %d: %s = %v", w.name, seed, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s seed %d: end-to-end metric %s = %v, must be positive", w.name, seed, name, m.Value)
				}
			}
			if res.work["work.states"] < 1000 {
				t.Errorf("%s seed %d: only %v states, too small to exercise anything", w.name, seed, res.work["work.states"])
			}
			if !traced {
				continue
			}

			spans, err := readTrace(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range derive(spans) {
				if got := res.metrics[name].Value; got != v {
					t.Errorf("%s: %s printed %v, trace file derives %v", w.name, name, got, v)
				}
			}
			checkSpans(t, w.name, spans)

			layer := func(name string) float64 { return res.metrics[name].Value }
			for _, name := range []string{"mc.apply_event_ns", "sm.encode_fullstate_ns", "services.clone_ns", "props.check_ns_per_state", "mc.run_wall_s", "mc.transitions_per_state", "bench.calibration_ns"} {
				if layer(name) <= 0 {
					t.Errorf("%s: %s = %v, want a measurement", w.name, name, layer(name))
				}
			}
			switch w.kind {
			case offline:
				if w.service == "bulletprime" && res.work["work.violations"] < 1 {
					t.Errorf("%s: no violation found, so violation replay was not exercised", w.name)
				}
			case sharded:
				if layer("dist.forwarded_share") <= 0 || layer("dist.send_ns_per_msg") <= 0 || layer("dist.speedup_vs_serial") <= 0 {
					t.Errorf("%s: nothing crossed between shards (forwarded %v, send %v ns)", w.name, layer("dist.forwarded_share"), layer("dist.send_ns_per_msg"))
				}
			case live:
				if layer("controller.searched_round_share") <= 0 || layer("controller.round_ms_p50") <= 0 || layer("sim.bare_virtual_s_per_host_s") <= layer("sim.virtual_s_per_host_s") {
					t.Errorf("%s: searched share %v, round p50 %v ms, bare %v vs steered %v virtual s per host s", w.name,
						layer("controller.searched_round_share"), layer("controller.round_ms_p50"), layer("sim.bare_virtual_s_per_host_s"), layer("sim.virtual_s_per_host_s"))
				}
			}
		}
	}
}

// checkSpans verifies the trace is well formed: ids are positions, parents
// exist and come first, every span ended, and self times never exceed the
// span.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	self := selfTimes(spans)
	for i, s := range spans {
		if s.ID != i+1 || s.Parent >= s.ID || s.Parent < 0 {
			t.Fatalf("%s: span %d has id %d parent %d", workload, i+1, s.ID, s.Parent)
		}
		if s.End < s.Start || s.Name == "" {
			t.Errorf("%s: span %d (%q) runs %d..%d", workload, s.ID, s.Name, s.Start, s.End)
		}
		if self[s.ID] < 0 || self[s.ID] > s.dur() {
			t.Errorf("%s: span %d (%q) self time %d of %d", workload, s.ID, s.Name, self[s.ID], s.dur())
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 50, End: 90, Parent: 1},
		{ID: 4, Name: "c", Start: 55, End: 60, Parent: 3},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 30, 3: 35, 4: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// The checks below are fed doctored passes: a check that cannot fail checks
// nothing.

func smokeInstance(t *testing.T, name string) (instance, *passRecord) {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	inst, err := setUp(w, w.smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := inst.run(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.prepare(nil); err != nil {
		t.Fatal(err)
	}
	if reasons := inst.check(rec, rec); len(reasons) > 0 {
		t.Fatalf("%s: honest pass fails its check: %v", name, reasons)
	}
	return inst, rec
}

func TestOfflineCheckCatchesDoctoredPasses(t *testing.T) {
	inst, rec := smokeInstance(t, "bullet-exhaustive")
	res := rec.result.(*mc.Result)
	if len(res.Violations) == 0 {
		t.Fatal("smoke pass found no violation to doctor")
	}

	other := *rec
	other.sig = "states=1 transitions=1 violations=[]"
	if len(inst.check(rec, &other)) == 0 {
		t.Error("a pass that differs from the cold pass passed")
	}

	short := *res
	short.StatesExplored--
	early := *rec
	early.result = &short
	if len(inst.check(&early, rec)) == 0 {
		t.Error("a pass that stopped short of its bound passed")
	}

	cut := *res
	cut.Violations = append([]mc.Violation(nil), res.Violations...)
	v := cut.Violations[0]
	v.Path = v.Path[:len(v.Path)-1]
	cut.Violations[0] = v
	broken := *rec
	broken.result = &cut
	if len(inst.check(&broken, rec)) == 0 {
		t.Error("a violation whose path does not reach it passed")
	}
}

func TestShardedCheckCatchesDoctoredPasses(t *testing.T) {
	inst, rec := smokeInstance(t, "chord-sharded")
	res := rec.result.(*dist.Result)

	retried := *res
	retried.Recovery.Retries = 1
	doctored := *rec
	doctored.result = &retried
	if len(inst.check(&doctored, rec)) == 0 {
		t.Error("a round that needed a retry passed")
	}

	sh := inst.(*shardedInstance)
	serial := *sh.serial
	serial.StatesExplored++
	sh.serial = &serial
	if len(inst.check(rec, rec)) == 0 {
		t.Error("a sharded pass that claimed a different number of states than the serial reference passed")
	}
}

func TestLiveCheckFailsEveryRoundOfADifferingPass(t *testing.T) {
	inst, rec := smokeInstance(t, "chord-live-steering")
	other := *rec
	other.sig += " and something else"
	doctored := *rec
	if len(inst.check(&doctored, &other)) == 0 || doctored.failed != doctored.attempted {
		t.Errorf("a pass that differs from the cold pass: failed %d of %d rounds", doctored.failed, doctored.attempted)
	}
}

// A traced live pass routes rounds through the harness's CheckRound seam;
// it must do exactly the work an untraced pass does.
func TestTracedLivePassDoesTheSameWork(t *testing.T) {
	inst, untraced := smokeInstance(t, "chord-live-steering")
	traced, err := inst.run(newTracer(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if traced.sig != untraced.sig {
		t.Errorf("traced pass: %s\nuntraced pass: %s", traced.sig, untraced.sig)
	}
	if traced.counts["seam_calls"] == 0 {
		t.Error("no round crossed the CheckRound seam")
	}
}
