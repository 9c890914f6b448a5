// Package a exercises the hotpathalloc pass. Only functions annotated
// //crystal:hotpath are checked; cold() holds the same constructs
// unannotated as the negative case.
package a

import (
	"fmt"
	"hash/fnv"
)

//crystal:hotpath
func hot(xs []int) string {
	return fmt.Sprintf("%d", len(xs)) // want `fmt.Sprintf allocates on a hot path`
}

//crystal:hotpath
func grow(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x*2) // want `append to un-preallocated slice out in a loop`
	}
	return out
}

//crystal:hotpath
func prealloc(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}

//crystal:hotpath
func reuse(buf, xs []int) []int {
	out := buf[:0]
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}

//crystal:hotpath
func closures(xs []int) int {
	total := 0
	for _, x := range xs {
		f := func() int { return total + x } // want `closure in a loop captures outer variables`
		total = f()
	}
	return total
}

//crystal:hotpath
func hashes(b []byte) uint64 {
	h := fnv.New64a() // want `fnv.New64a constructs a hash.Hash on a hot path`
	h.Write(b)
	return h.Sum64()
}

func sink(args ...any) int { return len(args) }

//crystal:hotpath
func boxing(x int, p *int) int {
	n := sink(x) // want `argument boxes a non-pointer value into \.\.\.any`
	n += sink(p)
	return n
}

//crystal:hotpath
func convert(x int) any {
	return any(x) // want `conversion boxes a non-pointer value into an interface`
}

// cloneSet is the shape NodeState.clone had: a map rebuilt per call.
//
//crystal:hotpath
func cloneSet(set map[string]bool) map[string]bool {
	out := make(map[string]bool, len(set)) // want `make builds a map on a hot path`
	for k := range set {
		out[k] = true
	}
	return out
}

type names map[string]bool

//crystal:hotpath
func literals(k string) (int, int) {
	a := map[string]bool{k: true} // want `map literal builds a map on a hot path`
	b := names{}                  // want `map literal builds a map on a hot path`
	return len(a), len(b)
}

// reuseSet clears and refills a map its caller owns, and sizes a slice with
// make: neither builds a map.
//
//crystal:hotpath
func reuseSet(seen map[string]bool, ks []string) []string {
	clear(seen)
	out := make([]string, 0, len(ks))
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// cold is unannotated: the same constructs draw no findings.
func cold(xs []int) string {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	seen := make(map[int]bool)
	seen[len(map[int]bool{1: true})] = true
	return fmt.Sprintf("%d", len(out)+len(seen))
}

// warm allocates knowingly; the func-doc directive covers the whole body.
//
//crystal:allow(hotpathalloc) cold branch: runs once per search, not per state
//crystal:hotpath
func warm(n int) string {
	return fmt.Sprintf("run-%d", n)
}
