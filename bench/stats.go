package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0 < q < 1) of values by the exclusive
// method — position q·(n+1) in the sorted sample, linearly interpolated —
// which is what Python's statistics.quantiles(values, n=4) computes for the
// quartiles and the textbook median for q = 0.5. Comparing two result sets
// (-agree) therefore reproduces the spreads an outside checker would derive
// from the same numbers. One value is its own quantile; none is NaN.
func quantile(values []float64, q float64) float64 {
	n := len(values)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return values[0]
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return sorted[j-1] + (sorted[j]-sorted[j-1])*(pos-float64(j))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
// Fewer than two values have no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := median(values)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs((quantile(values, 0.75) - quantile(values, 0.25)) / m)
}

// summary is how a timing is reported: the median with the quartiles, the
// minimum and the sample count beside it.
type summary struct {
	Median, Min, Q1, Q3 float64
	N                   int
}

// summarize describes at least one value.
func summarize(values []float64) summary {
	return summary{
		Median: median(values),
		Min:    slices.Min(values),
		Q1:     quantile(values, 0.25),
		Q3:     quantile(values, 0.75),
		N:      len(values),
	}
}
