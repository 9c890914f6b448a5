// Package a exercises the hotpathalloc pass. Only functions annotated
// //crystal:hotpath are checked; cold() holds the same constructs
// unannotated as the negative case.
package a

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
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

// entry and proposal model the search tree's slab values: stored by value,
// never a heap object per child.
type entry struct {
	hash   uint64
	parent int32
}

type proposal struct {
	hash uint64
	sibs int32
}

type other struct{ n int }

// store models the engine: a slab and a reused buffer it owns.
type store struct {
	tree  []entry
	props []proposal
}

//crystal:hotpath
func (s *store) perChild(hashes []uint64) *other {
	for _, h := range hashes {
		e := &entry{hash: h} // want `&entry\{\} heap-allocates one entry per child`
		p := new(proposal)   // want `new\(proposal\) heap-allocates one proposal per child`
		q := &proposal{}     // want `&proposal\{\} heap-allocates one proposal per child`
		p.hash, q.hash = e.hash, h
		// By value, into storage the engine owns: the slab layout.
		s.tree = append(s.tree, entry{hash: h})
		s.props = append(s.props, proposal{hash: h}, *p, *q)
	}
	return &other{n: len(hashes)} // some other type: not a slab value
}

type event interface{ node() int }

type delivery struct{ to int }

func (d delivery) node() int { return d.to }

type timer struct{ at int }

func (t *timer) node() int { return t.at }

// enumerate boxes one event per enabled transition, wanted or not.
//
//crystal:hotpath
func enumerate(buf []event, tos []int) []event {
	buf = buf[:0]
	for _, to := range tos {
		buf = append(buf, delivery{to: to}) // want `append boxes a struct into a slice of interfaces once per iteration`
		buf = append(buf, &timer{at: to})   // a pointer fits the interface word (and is its own finding elsewhere if it must not allocate)
	}
	return buf
}

// enumerateKeys lists plain values; the caller boxes the ones it executes.
//
//crystal:hotpath
func enumerateKeys(buf []delivery, tos []int) []delivery {
	buf = buf[:0]
	for _, to := range tos {
		buf = append(buf, delivery{to: to})
	}
	return buf
}

// byTo is a sort.Interface over deliveries.
type byTo []delivery

func (b byTo) Len() int           { return len(b) }
func (b byTo) Less(i, j int) bool { return b[i].to < b[j].to }
func (b byTo) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// encodeSorted is the shape a map-backed state encoder had: collect the keys,
// then sort them, on every call.
//
//crystal:hotpath
func encodeSorted(ids []int, ds []delivery) int {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })          // want `sort.Slice allocates per call on a hot path`
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].to < ds[j].to }) // want `sort.SliceStable allocates per call on a hot path`
	sort.Sort(byTo(ds))                                                      // want `sort.Sort allocates per call on a hot path`
	return ids[0] + ds[0].to
}

// encodeOrdered sorts a slice of an ordered type in place, and searches one
// that is kept sorted: neither allocates.
//
//crystal:hotpath
func encodeOrdered(ids []int, want int) int {
	slices.Sort(ids)
	sort.Ints(ids)
	return sort.SearchInts(ids, want)
}

// cold is unannotated: the same constructs draw no findings.
func cold(xs []int) string {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	seen := make(map[int]bool)
	seen[len(map[int]bool{1: true})] = true
	evs := []event{}
	for _, x := range xs {
		evs = append(evs, delivery{to: x})
	}
	return fmt.Sprintf("%d", len(out)+len(seen)+len(evs)+int((&entry{}).parent)+int(new(proposal).sibs))
}
