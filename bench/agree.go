package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the
// declared workloads and metrics, with each end-to-end metric's direction
// and the share of the baseline's median it may worsen by.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's values over every run of one workload.
func (f *resultFile) values(workload, name string) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// verdict is how one (workload, metric) pair of B compares with A.
type verdict string

const (
	agrees     verdict = "agree"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved"
)

// compare judges B's values of one metric against A's. The medians decide,
// against the metric's bound — unless either side's own spread (quartile
// distance over median) is wider than the bound: then the pair is
// unresolved, except when every B value is better than every A value.
func compare(a, b []float64, m metricSpec) (v verdict, change, noise float64) {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	change = sign * (mb - ma) / ma
	noise = max(spread(a), spread(b))
	if noise > m.Bound {
		clear := true
		for _, x := range a {
			for _, y := range b {
				clear = clear && sign*(y-x) < 0
			}
		}
		if clear {
			return better, change, noise
		}
		return unresolved, change, noise
	}
	switch {
	case change > m.Bound:
		return worse, change, noise
	case change < -m.Bound:
		return better, change, noise
	}
	return agrees, change, noise
}

// agreeFiles prints every (workload, end-to-end metric) pair of B against A
// and returns how many are worse. Failed operations are worse whatever the
// metrics say; work counts that differ are printed, because two sets that
// did different work are not measuring the same thing.
func agreeFiles(w io.Writer, specPath, pathA, pathB string) (int, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc {
		fmt.Fprintf(w, "note: hosts differ (%s x%d vs %s x%d; calibration %.0f vs %.0f ns)\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc, a.Host.CalibrationNS, b.Host.CalibrationNS)
	}
	nWorse := 0
	for _, wl := range spec.Workloads {
		for _, f := range []*resultFile{a, b} {
			for _, r := range f.Runs {
				if r.Workload == wl.Name && r.Skipped == "" && (!r.Correct || r.Failed > 0) {
					fmt.Fprintf(w, "%-22s %-24s worse       seed %d: %d of %d ops failed\n", wl.Name, "failed", r.Seed, r.Failed, r.Attempted)
					nWorse++
				}
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-22s %-24s missing     (%d vs %d values)\n", wl.Name, m.Name, len(va), len(vb))
				continue
			}
			v, change, noise := compare(va, vb, m)
			if v == worse {
				nWorse++
			}
			fmt.Fprintf(w, "%-22s %-24s %-11s %.6g -> %.6g %s (%+.2f%% worse-ward, spread %.2f%%, bound %.0f%%, n %d/%d)\n",
				wl.Name, m.Name, v, median(va), median(vb), m.Unit, 100*change, 100*noise, 100*m.Bound, len(va), len(vb))
		}
		for _, key := range []string{"work.states", "work.transitions", "work.rounds"} {
			if wa, wb := a.work(wl.Name, key), b.work(wl.Name, key); wa != wb {
				fmt.Fprintf(w, "%-22s %-24s differs     %s vs %s\n", wl.Name, key, wa, wb)
			}
		}
	}
	return nWorse, nil
}

// work renders one work count over every run of a workload, by seed.
func (f *resultFile) work(workload, key string) string {
	s := ""
	for _, r := range f.Runs {
		if v, ok := r.Work[key]; ok && r.Workload == workload {
			s += fmt.Sprintf("%d:%.0f ", r.Seed, v)
		}
	}
	return s
}
