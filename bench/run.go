package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"crystalball/internal/mc"
)

// instance is one set-up workload: something that can run a pass and check
// what the pass produced.
type instance interface {
	// prepare does the one-off work a workload's checks need (the sharded
	// workload's serial reference). It runs after the cold pass, so it is
	// not the first search of the process and its own time is a warm one.
	prepare(tr *tracer) error
	// run executes one pass. With a nil tracer nothing of the harness is
	// on the program's path.
	run(tr *tracer, parent, pass int) (*passRecord, error)
	// check compares a pass with the cold pass of the same process and
	// returns why it fails, if it does.
	check(rec, cold *passRecord) []string
}

// passRecord is what one pass did and what it cost.
type passRecord struct {
	pass        int
	span        int // the pass's root span (0 untraced)
	states      int64
	transitions int64
	attempted   int64 // ops: search passes, or controller rounds
	failed      int64
	sig         string             // what must repeat exactly across passes
	counts      map[string]float64 // boundary counts, copied onto the pass span
	result      any                // the workload's own result, for check
	cost
}

// setUp is one complete set-up of a workload: everything a pass reuses.
func setUp(w workload, sz size, seed int64) (instance, error) {
	if w.kind == live {
		return buildLive(w, sz, seed)
	}
	in, err := buildSearchInput(w, sz, seed)
	if err != nil {
		return nil, err
	}
	if w.kind == sharded {
		return &shardedInstance{in: in}, nil
	}
	return &offlineInstance{in: in}, nil
}

// Set-up is cheap next to a pass (microseconds for a start state, tens of
// microseconds for a deployment), so one sample times a batch of complete
// set-ups and reports the time of one; setup_s is the median over the
// samples. A batch is some 15 ms of work: long enough that the collector's
// cycles, which this much allocation triggers, fall into every sample alike
// instead of into some. The first batch is not a sample: it runs on a cold
// process (page faults, empty caches) and would measure that.
const setupSamples = 15

func setupBatch(k kind) int {
	if k == live {
		return 256
	}
	return 4096
}

// setupSpan names the span around one batch after the public call set-up
// spends its time in.
func setupSpan(k kind) string {
	if k == live {
		return "scenario.Deploy"
	}
	return "scenario.InitialState"
}

// measureSetUp sets the workload up in timed batches and returns the last
// instance built with the time of one set-up per sample.
func measureSetUp(o runOptions, sz size, tr *tracer) (inst instance, setups []float64, err error) {
	samples, batch := setupSamples, setupBatch(o.w.kind)
	if o.smoke {
		samples = 2
	}
	for i := -1; i < samples; i++ {
		id := tr.start(setupSpan(o.w.kind), 0, setupPass)
		start := time.Now()
		for j := 0; j < batch; j++ {
			if inst, err = setUp(o.w, sz, o.seed); err != nil {
				return nil, nil, err
			}
		}
		if i >= 0 {
			setups = append(setups, time.Since(start).Seconds()/float64(batch))
		}
		tr.end(id, map[string]float64{"batch": float64(batch)})
	}
	return inst, setups, nil
}

// timedPass runs one pass between two meter readings. The collector runs
// first, so a pass starts from the previous pass's live heap and not from
// its garbage.
func timedPass(inst instance, tr *tracer, pass int, traced bool) (*passRecord, error) {
	runtime.GC()
	root := tr.start("pass", 0, pass)
	inner := tr
	if !traced {
		inner = nil
	}
	before := readMeter(false)
	rec, err := inst.run(inner, root, pass)
	after := readMeter(true)
	if err != nil {
		tr.end(root, nil)
		return nil, err
	}
	rec.pass, rec.span, rec.cost = pass, root, after.since(before)
	if tr != nil {
		n := make(map[string]float64, len(rec.counts)+10)
		for k, v := range rec.counts {
			n[k] = v
		}
		n["traced"] = b2f(traced)
		rec.cost.addTo(n)
		tr.end(root, n)
	}
	return rec, nil
}

// runOptions selects one run of one workload.
type runOptions struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	outDir  string
}

// runResult is what a run reports.
type runResult struct {
	correct   bool
	attempted int64
	failed    int64
	reasons   []string
	metrics   map[string]metric
	work      map[string]float64
	cold      *passRecord
	timed     []*passRecord
	passes    summary // walls of the timed passes the metrics are taken over, seconds
}

// A pass during which the hypervisor gave more than this share of its wall
// to other guests measured the neighbours, not the program.
const disturbedStealShare = 0.02

func (r *passRecord) disturbed() bool { return r.steal > disturbedStealShare*r.wallNS/1e9 }

// undisturbed returns the timed passes the metrics are taken over: the ones
// without noticeable steal when at least three are left, every pass
// otherwise (a host that is busy throughout gives no better sample).
func undisturbed(timed []*passRecord) []*passRecord {
	var quiet []*passRecord
	for _, r := range timed {
		if !r.disturbed() {
			quiet = append(quiet, r)
		}
	}
	if len(quiet) >= 3 {
		return quiet
	}
	return timed
}

// runWorkload sets the workload up, runs one cold pass and then timed
// passes of the identical input until the measuring time is used, checks
// every pass, and computes the metrics: end to end from an untraced run,
// per layer from a traced one. Closed loop, one client: the next pass
// starts when the previous one has returned.
func runWorkload(o runOptions) (*runResult, error) {
	runtime.GOMAXPROCS(benchProcs())
	if o.w.kind == sharded && runtime.NumCPU() < shardCount {
		return nil, fmt.Errorf("%s skipped: %d shards need %d cores, host has %d", o.w.name, shardCount, shardCount, runtime.NumCPU())
	}
	sz := o.w.full
	if o.smoke {
		sz = o.w.smoke
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
		id := tr.start("bench.calibrate", 0, setupPass)
		tr.end(id, map[string]float64{"best_ns": calibrate()})
	}

	inst, setups, err := measureSetUp(o, sz, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.w.name, err)
	}
	res := &runResult{metrics: make(map[string]metric), work: make(map[string]float64)}
	judge := func(rec, cold *passRecord) {
		reasons := inst.check(rec, cold)
		if len(reasons) > 0 && rec.failed == 0 {
			rec.failed = rec.attempted
		}
		for _, r := range reasons {
			res.reasons = append(res.reasons, fmt.Sprintf("pass %d: %s", rec.pass, r))
		}
		res.attempted += rec.attempted
		res.failed += rec.failed
		tr.annotate(rec.span, "attempted", float64(rec.attempted))
		tr.annotate(rec.span, "failed", float64(rec.failed))
	}

	cold, err := timedPass(inst, tr, 0, o.traced)
	if err != nil {
		return nil, fmt.Errorf("%s: cold pass: %w", o.w.name, err)
	}
	runtime.GC() // the cold pass's garbage is not the reference's to carry
	if err := inst.prepare(tr); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", o.w.name, err)
	}
	judge(cold, cold)

	// A traced run alternates passes with the harness wrappers off and on:
	// their difference is what tracing costs.
	minPasses := 3
	if o.traced {
		minPasses = 4
	}
	if o.smoke {
		minPasses = 2
	}
	var timed []*passRecord
	began := time.Now()
	for pass := 1; pass <= minPasses || (!o.smoke && time.Since(began).Seconds() < o.seconds); pass++ {
		rec, err := timedPass(inst, tr, pass, o.traced && pass%2 == 0)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", o.w.name, pass, err)
		}
		judge(rec, cold)
		timed = append(timed, rec)
	}

	res.cold, res.timed = cold, timed
	measured := undisturbed(timed)
	over := func(f func(*passRecord) float64) []float64 {
		vals := make([]float64, len(measured))
		for i, rec := range measured {
			vals[i] = f(rec)
		}
		return vals
	}
	res.passes = summarize(over(func(r *passRecord) float64 { return r.wallNS / 1e9 }))
	res.work["work.states"] = float64(cold.states)
	res.work["work.transitions"] = float64(timed[len(timed)-1].transitions)
	res.work["work.passes"] = float64(len(timed))
	for _, key := range []string{"rounds", "violations"} {
		if v, ok := cold.counts[key]; ok {
			res.work["work."+key] = v
		}
	}

	if !o.traced {
		set := func(name string, v float64) { res.metrics[name] = metric{Value: v, Unit: endToEndUnits[name]} }
		set("states_per_s", median(over(func(r *passRecord) float64 { return float64(r.states) / (r.wallNS / 1e9) })))
		set("alloc_bytes_per_state", median(over(func(r *passRecord) float64 { return r.allocBytes / float64(r.states) })))
		set("peak_rss_mb", peakRSSMB())
		set("setup_s", median(setups))
	} else {
		if err := traceExtras(o, inst, tr, cold); err != nil {
			return nil, err
		}
		path := filepath.Join(o.outDir, "trace-"+o.w.name+".jsonl")
		if err := tr.flush(path); err != nil {
			return nil, err
		}
		// The table is derived from the file just written, so what is
		// printed is what anyone can re-derive from it.
		spans, err := readTrace(path)
		if err != nil {
			return nil, err
		}
		for name, v := range derive(spans) {
			res.metrics[name] = metric{Value: v, Unit: perLayerUnits[name]}
		}
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "probe:") && s.N["failed"]+s.N["mismatched"]+s.N["violated"] > 0 {
				res.reasons = append(res.reasons, fmt.Sprintf("%s: %v", s.Name, s.N))
				res.failed++
			}
		}
	}
	res.correct = res.failed == 0 && len(res.reasons) == 0
	return res, nil
}

// traceExtras runs what only a traced run pays for: one pass under a tight
// collector to read the retained heap, the bare deployment, and the layer
// probes over a sample of the workload's own states.
func traceExtras(o runOptions, inst instance, tr *tracer, cold *passRecord) error {
	if err := retainedPass(inst, tr, cold); err != nil {
		return err
	}
	switch in := inst.(type) {
	case *liveInstance:
		if err := in.runBare(tr); err != nil {
			return err
		}
		if in.harvestedAt == nil {
			return fmt.Errorf("%s: no state crossed the CheckRound seam, nothing to probe", o.w.name)
		}
		runProbes(tr, *in.harvestedAt, in.harvested, in.harvested, o.seed)
	case *offlineInstance:
		probeSearch(tr, in.in, o, cold)
	case *shardedInstance:
		probeSearch(tr, in.in, o, cold)
	}
	return nil
}

func probeSearch(tr *tracer, in *searchInput, o runOptions, cold *passRecord) {
	n := probeSample
	if o.smoke {
		n = probeSample / 10
	}
	sample := walkSample(mc.NewSearch(in.cfg), in.start, newRNG(o.seed), n, int(cold.counts["depth"]))
	runProbes(tr, in.cfg, sample, []*mc.GState{in.start}, o.seed)
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// retainedPass runs one extra pass with the collector set to start a cycle
// after 10 % growth, sampling the live heap every 5 ms: the largest reading
// over the claimed states is what the search really keeps per state, next
// to the checker's own accounting.
func retainedPass(inst instance, tr *tracer, cold *passRecord) error {
	runtime.GC()
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				metrics.Read(liveHeap)
				if v := liveHeap[0].Value.Uint64(); v > peak {
					peak = v
				}
			case <-stop:
				done <- peak
				return
			}
		}
	}()
	id := tr.start("mc.retained_pass", 0, setupPass)
	rec, err := inst.run(nil, id, setupPass)
	close(stop)
	peak := <-done
	if err != nil {
		tr.end(id, nil)
		return fmt.Errorf("retained pass: %w", err)
	}
	tr.end(id, map[string]float64{"max_live_bytes": float64(peak), "states": float64(rec.states)})
	if reasons := inst.check(rec, cold); len(reasons) > 0 {
		return fmt.Errorf("retained pass: %s", strings.Join(reasons, "; "))
	}
	return nil
}

// print writes every metric by name with its unit, the work counts, and
// the pass-time summary.
func (r *runResult) print(w io.Writer, o runOptions) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", o.w.name, o.seed, o.traced)
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-40s %18.6g %s\n", name, m.Value, m.Unit)
	}
	works := make([]string, 0, len(r.work))
	for name := range r.work {
		works = append(works, name)
	}
	sort.Strings(works)
	for _, name := range works {
		fmt.Fprintf(w, "  %-40s %18.0f count\n", name, r.work[name])
	}
	for _, p := range append([]*passRecord{r.cold}, r.timed...) {
		note := ""
		if p.disturbed() {
			note = " (disturbed)"
		}
		fmt.Fprintf(w, "  pass %-2d wall %8.4f s  cpu %7.3f+%.3f s  steal %.2f s  gc %3.0f cycles%s\n",
			p.pass, p.wallNS/1e9, p.userCPU, p.sysCPU, p.steal, p.gcCycles, note)
	}
	fmt.Fprintf(w, "  %-40s %18.6g s (min %.6g, quartiles %.6g..%.6g, %d of %d timed passes)\n",
		"pass_wall", r.passes.Median, r.passes.Min, r.passes.Q1, r.passes.Q3, r.passes.N, len(r.timed))
	fmt.Fprintf(w, "  ops attempted %d failed %d\n", r.attempted, r.failed)
	for _, reason := range r.reasons {
		fmt.Fprintf(w, "  FAILED %s\n", reason)
	}
}
