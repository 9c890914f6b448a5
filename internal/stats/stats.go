// Package stats provides the small statistics and formatting helpers
// shared by the experiment harnesses: duration samples and plain-text tables
// matching the rows/series the paper reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates scalar observations.
type Sample struct {
	values []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// AddDuration records a duration in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var total float64
	for _, v := range s.values {
		total += v
	}
	return total / float64(len(s.values))
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest
// rank: the ⌈p·n/100⌉-th smallest of the n observations, and the smallest
// for p = 0; 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Table renders experiment rows as aligned plain text.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends one row; values are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Rate renders a count as bits/second over a window.
func Rate(bytes int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(bytes*8) / window.Seconds()
}
