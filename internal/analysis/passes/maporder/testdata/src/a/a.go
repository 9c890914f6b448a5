// Package a exercises the maporder pass: flagged map ranges and the
// commutative-fold and collect-then-sort exemptions, nested loops included.
package a

import (
	"fmt"
	"sort"
)

// leak appends map keys in iteration order to an outer slice and never
// sorts: the randomized order escapes — the PR 2 bug class.
func leak(m map[string]int) []string {
	var keys []string
	for k := range m { // want `iteration over map map\[string\]int has non-deterministic order`
		keys = append(keys, k)
	}
	return keys
}

// dump streams entries to an order-observing sink.
func dump(m map[string]int) {
	for k, v := range m { // want `non-deterministic order`
		fmt.Println(k, v)
	}
}

// nested hides the escape one block deeper.
func nested(m map[string]int, limit int) []string {
	var keys []string
	for k, v := range m { // want `non-deterministic order`
		if v > limit {
			keys = append(keys, k)
			fmt.Println(k)
		}
	}
	return keys
}

// sum is a commutative fold: accumulation order is invisible.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// count only increments.
func count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// invert writes keyed by the range value: two keys with one value leave
// whichever key the map order visits last.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m { // want `non-deterministic order`
		out[v] = k
	}
	return out
}

// clone writes keyed by the range key itself: distinct keys commute.
func clone(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// prune deletes keyed by the range variable.
func prune(m map[string]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

// sortedKeys is the collect-then-sort idiom.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedSubset collects behind a call-free guard before sorting.
func sortedSubset(m map[string]int, limit int) []string {
	var keys []string
	for k, v := range m {
		if v > limit {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// nestedSum folds a map of sets: the inner loop's body is itself a
// commutative fold, so neither loop's order reaches the sum.
func nestedSum(m map[string]map[int]bool) uint64 {
	var sum uint64
	for k, set := range m {
		for x := range set {
			sum += uint64(len(k) * x)
		}
	}
	return sum
}

// nestedLeak appends from the inner loop into an outer slice: both loops'
// orders escape.
func nestedLeak(m map[string]map[int]bool) []int {
	var xs []int
	for _, set := range m { // want `non-deterministic order`
		for x := range set { // want `non-deterministic order`
			xs = append(xs, x)
		}
	}
	return xs
}

// nestedLastWins writes a key of the outer loop once per inner iteration:
// the inner order picks the value that stays.
func nestedLastWins(m map[string]map[int]bool) map[string]int {
	out := make(map[string]int, len(m))
	for k, set := range m { // want `non-deterministic order`
		for x := range set { // want `non-deterministic order`
			out[k] = x
		}
	}
	return out
}
