package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's
// statistics.quantiles(values, n=4) returns (exclusive method), so a spread
// computed here equals one computed outside from the same numbers.
func TestQuantileMatchesExclusiveMethod(t *testing.T) {
	cases := []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.0, 2.1, 1.9, 2.4, 2.05}, 1.95, 2.05, 2.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		if got := quantile(c.values, 0.25); !near(got, c.q1) {
			t.Errorf("q1 of %v = %v, want %v", c.values, got, c.q1)
		}
		if got := median(c.values); !near(got, c.q2) {
			t.Errorf("median of %v = %v, want %v", c.values, got, c.q2)
		}
		if got := quantile(c.values, 0.75); !near(got, c.q3) {
			t.Errorf("q3 of %v = %v, want %v", c.values, got, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing = %v, want NaN", median(nil))
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	values := []float64{3, 1, 2}
	quantile(values, 0.5)
	if values[0] != 3 || values[1] != 1 || values[2] != 2 {
		t.Errorf("quantile reordered its input: %v", values)
	}
}

func TestHighPercentile(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i + 1)
	}
	// Position 0.95·1001 = 950.95: between the 950th and 951st value.
	if got := quantile(values, 0.95); !near(got, 950.95) {
		t.Errorf("p95 of 1..1000 = %v, want 950.95", got)
	}
}

func TestSpreadAndSummary(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(values), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	s := summarize(values)
	if s.N != 10 || s.Min != 1 || !near(s.Median, 5.5) || !near(s.Q1, 2.75) || !near(s.Q3, 8.25) {
		t.Errorf("summary = %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		a, b []float64
		m    metricSpec
		want verdict
	}{
		{"same", steady, steady, lower, agrees},
		{"lower-is-better got higher", steady, []float64{120, 121, 119, 120, 120}, lower, worse},
		{"lower-is-better got lower", steady, []float64{80, 81, 79, 80, 80}, lower, better},
		{"higher-is-better got lower", steady, []float64{80, 81, 79, 80, 80}, higher, worse},
		{"higher-is-better got higher", steady, []float64{120, 121, 119, 120, 120}, higher, better},
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, lower, agrees},
		{"noisy and overlapping", []float64{60, 100, 140, 80, 120}, []float64{70, 110, 150, 90, 130}, lower, unresolved},
		{"noisy but every run better", []float64{100, 140, 180, 120, 160}, []float64{10, 50, 90, 30, 70}, lower, better},
	}
	for _, c := range cases {
		if got, _, _ := compare(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
