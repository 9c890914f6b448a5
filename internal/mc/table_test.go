package mc

import (
	"math/rand"
	"slices"
	"testing"
)

// keysOf returns m's keys in ascending order (collect, then sort).
func keysOf(m map[uint64]int32) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// keySet is a named sequence of distinct nonzero keys.
type keySet struct {
	name string
	keys []uint64
}

// tableKeySets are the key sequences the claim-table oracles run, n keys
// each: random keys; keys that share their low 16 bits, so every key starts
// its probe at the same slot of any table up to 2^16 slots and the runs are
// long; keys that share their high 32 bits, so every visited slot's tag
// matches and only the tree entry's full hash tells them apart; and both at
// once.
func tableKeySets(n int) []keySet {
	rng := rand.New(rand.NewSource(7))
	sets := []keySet{{name: "random"}, {name: "shared low bits"}, {name: "shared high bits"}, {name: "shared tag and low bits"}}
	for i := 0; i < n; i++ {
		r := rng.Uint64()
		for j, k := range []uint64{r, r&^0xffff | 0x2a2a, 0xdeadbeef<<32 | r&0xffffffff, 0xdeadbeef<<32 | uint64(i+1)<<16 | 0x2a2a} {
			sets[j].keys = append(sets[j].keys, k)
		}
	}
	return sets
}

// TestTableMatchesMap is the local tables' differential oracle: a table and
// a Go map take the same puts — new keys, key 0 (a local hash can be 0), and
// overwrites of present keys — and must agree on every get, on absent keys, on len and on the
// sorted key set, across growth and after the table is cleared and reused
// for a second key set. What a table accounts is what a table grown from
// empty holds: the same after reuse as fresh.
func TestTableMatchesMap(t *testing.T) {
	const n = 3000
	var reused table
	for _, set := range tableKeySets(n) {
		name, keys := set.name, set.keys
		for _, tb := range []*table{new(table), &reused} {
			tb.clear()
			oracle := map[uint64]int32{}
			check := func(stage string) {
				t.Helper()
				if tb.len() != len(oracle) {
					t.Fatalf("%s, %s: len %d, map %d", name, stage, tb.len(), len(oracle))
				}
				want := keysOf(oracle)
				for _, k := range want {
					if got, ok := tb.get(k); !ok || got != oracle[k] {
						t.Fatalf("%s, %s: get(%#x) = %d, %v; map has %d", name, stage, k, got, ok, oracle[k])
					}
				}
				if got := tb.sorted(); !slices.Equal(got, want) {
					t.Fatalf("%s, %s: %d sorted keys differ from the map's %d", name, stage, len(got), len(want))
				}
			}
			for i, k := range append([]uint64{0}, keys...) {
				_, present := oracle[k]
				if added := tb.put(k, int32(i)); added == present {
					t.Fatalf("%s: put(%#x) reports added=%v, map had it: %v", name, k, added, present)
				}
				oracle[k] = int32(i)
				if i%500 == 0 {
					check("growing")
				}
			}
			// Overwrite every other key, then look up keys never put.
			for i, k := range keys {
				if i%2 == 0 {
					if tb.put(k, -int32(i)) {
						t.Fatalf("%s: overwriting %#x reports it absent", name, k)
					}
					oracle[k] = -int32(i)
				}
			}
			check("overwritten")
			for _, k := range keys {
				absent := k ^ 1<<40
				if _, in := oracle[absent]; in {
					continue
				}
				if _, ok := tb.get(absent); ok {
					t.Fatalf("%s: get(%#x) finds a key never put", name, absent)
				}
			}
			fresh := new(table)
			for _, k := range keysOf(oracle) {
				fresh.put(k, 0)
			}
			if tb.bytes() != fresh.bytes() || fresh.bytes() != 12*int64(len(fresh.keys)) {
				t.Fatalf("%s: accounts %d B, a fresh table of the same keys %d B in %d slots", name, tb.bytes(), fresh.bytes(), len(fresh.keys))
			}
			if 4*fresh.n > 3*len(fresh.keys) {
				t.Fatalf("%s: %d keys in %d slots, more than 3/4 full", name, fresh.n, len(fresh.keys))
			}
		}
	}
	if reused.clear(); reused.len() != 0 || reused.bytes() != 0 {
		t.Fatalf("a cleared table holds %d keys and accounts %d B", reused.len(), reused.bytes())
	}
	if _, ok := reused.get(0); ok {
		t.Fatal("a cleared table still holds key 0")
	}
}

// TestVisitedMatchesMap is the visited table's differential oracle against a
// map from fingerprint to tree entry: every claim is a new tree entry, some
// fingerprints are claimed again shallower — which must replace the entry the
// table names — and the table must agree with the map on every get, on
// fingerprints never claimed, on its count and on the sorted fingerprint set,
// across growth and after it is cleared and reused with a fresh tree.
func TestVisitedMatchesMap(t *testing.T) {
	const n = 3000
	var reused visitedTable
	for _, set := range tableKeySets(n) {
		name, keys := set.name, set.keys
		for _, v := range []*visitedTable{new(visitedTable), &reused} {
			v.clear()
			tree := newTree(false)
			oracle := map[uint64]int32{}
			claim := func(h uint64, depth int) {
				idx := int32(tree.entries.push(entry{hash: h, depth: int32(depth), pos: -1}))
				v.put(h, idx, tree)
				oracle[h] = idx
			}
			check := func(stage string) {
				t.Helper()
				if v.n != len(oracle) {
					t.Fatalf("%s, %s: %d claims, map %d", name, stage, v.n, len(oracle))
				}
				want := keysOf(oracle)
				for _, h := range want {
					if idx, ent := v.get(h, tree); idx != oracle[h] || ent != tree.entries.at(int(oracle[h])) {
						t.Fatalf("%s, %s: get(%#x) = entry %d, map has %d", name, stage, h, idx, oracle[h])
					}
				}
				if got := v.fingerprints(tree); !slices.Equal(got, want) {
					t.Fatalf("%s, %s: %d fingerprints differ from the map's %d", name, stage, len(got), len(want))
				}
			}
			for i, h := range keys {
				claim(h, 5)
				if i%500 == 0 {
					check("growing")
				}
			}
			// A shallower re-claim of every third fingerprint.
			for i, h := range keys {
				if i%3 == 0 {
					claim(h, 4)
				}
			}
			check("re-claimed")
			for _, h := range keys {
				absent := h ^ 1<<20 // same tag, another fingerprint
				if _, in := oracle[absent]; in {
					continue
				}
				if idx, ent := v.get(absent, tree); idx != -1 || ent != nil {
					t.Fatalf("%s: get(%#x), never claimed, finds entry %d", name, absent, idx)
				}
			}
			fresh := new(visitedTable)
			for _, h := range keysOf(oracle) {
				fresh.put(h, oracle[h], tree)
			}
			if v.bytes() != fresh.bytes() || fresh.bytes() != 8*int64(len(fresh.slots)) {
				t.Fatalf("%s: accounts %d B, a fresh table of the same claims %d B in %d slots", name, v.bytes(), fresh.bytes(), len(fresh.slots))
			}
			if 4*fresh.n > 3*len(fresh.slots) {
				t.Fatalf("%s: %d claims in %d slots, more than 3/4 full", name, fresh.n, len(fresh.slots))
			}
		}
	}
}

// TestHashSetMatchesMap is the fingerprint-only set's differential oracle:
// a hashSet and a Go map take the same puts — new keys, key 0 and keys
// already present — and removals of every third key, some of them absent,
// and must agree on every lookup, on keys never put, on len and on the
// sorted key set, across growth and after the set is cleared and reused for
// the next key set. Removals run inside the long probe runs of keys sharing
// their low 16 bits, where a key after a removed one must still be found.
// What a set accounts is what a set grown from empty to the same keys holds,
// 8 bytes a slot: the same after reuse as fresh.
func TestHashSetMatchesMap(t *testing.T) {
	const n = 3000
	var reused hashSet
	for _, set := range tableKeySets(n) {
		name, keys := set.name, set.keys
		for _, hs := range []*hashSet{new(hashSet), &reused} {
			hs.clear()
			oracle := map[uint64]bool{}
			check := func(stage string) {
				t.Helper()
				if hs.len() != len(oracle) {
					t.Fatalf("%s, %s: len %d, map %d", name, stage, hs.len(), len(oracle))
				}
				var want []uint64
				for k := range oracle {
					want = append(want, k)
				}
				slices.Sort(want)
				for _, k := range want {
					if !hs.has(k) {
						t.Fatalf("%s, %s: %#x is missing", name, stage, k)
					}
				}
				if got := hs.sorted(); !slices.Equal(got, want) {
					t.Fatalf("%s, %s: %d sorted keys differ from the map's %d", name, stage, len(got), len(want))
				}
				for _, k := range keys {
					if absent := k ^ 1<<40; !oracle[absent] && hs.has(absent) {
						t.Fatalf("%s, %s: has(%#x) finds a key never put", name, stage, absent)
					}
				}
				fresh := new(hashSet)
				for _, k := range want {
					fresh.put(k)
				}
				if hs.bytes() != fresh.bytes() || fresh.bytes() != 8*int64(len(fresh.keys)) {
					t.Fatalf("%s, %s: accounts %d B, a fresh set of the same keys %d B in %d slots", name, stage, hs.bytes(), fresh.bytes(), len(fresh.keys))
				}
				if 4*fresh.n > 3*len(fresh.keys) {
					t.Fatalf("%s, %s: %d keys in %d slots, more than 3/4 full", name, stage, fresh.n, len(fresh.keys))
				}
			}
			for i, k := range append([]uint64{0}, keys...) {
				if added := hs.put(k); added == oracle[k] {
					t.Fatalf("%s: put(%#x) reports added=%v, map had it: %v", name, k, added, oracle[k])
				}
				oracle[k] = true
				if i%500 == 0 {
					check("growing")
				}
			}
			for _, k := range keys[:100] {
				if hs.put(k) {
					t.Fatalf("%s: putting %#x again reports it absent", name, k)
				}
			}
			check("full")
			for i, k := range append([]uint64{0}, keys...) {
				if i%3 == 0 {
					hs.remove(k)
					hs.remove(k ^ 1<<40) // never put
					delete(oracle, k)
				}
			}
			check("removed")
			for i, k := range keys {
				if i%3 == 2 {
					hs.put(k)
					oracle[k] = true
				}
			}
			check("put back")
		}
	}
	if reused.clear(); reused.len() != 0 || reused.bytes() != 0 || reused.has(0) {
		t.Fatalf("a cleared set holds %d keys (key 0: %v) and accounts %d B", reused.len(), reused.has(0), reused.bytes())
	}
}

// TestTableLookupAllocBound: a lookup in any table or set allocates nothing,
// hit or miss, and neither does a put that needs no growth.
func TestTableLookupAllocBound(t *testing.T) {
	tree := newTree(false)
	var v visitedTable
	var tb table
	var hs hashSet
	keys := tableKeySets(1000)[0].keys
	for i, h := range keys {
		v.put(h, int32(tree.entries.push(entry{hash: h})), tree)
		tb.put(h, int32(i))
		hs.put(h)
	}
	var sink int32
	allocs := testing.AllocsPerRun(100, func() {
		for _, h := range keys[:100] {
			idx, _ := v.get(h, tree)
			val, _ := tb.get(h)
			miss, _ := v.get(h^1, tree)
			_, _ = tb.get(h ^ 1)
			sink += idx + val + miss
			if hs.has(h) && !hs.has(h^1) {
				sink++
			}
		}
		tb.put(keys[0], sink)
		v.put(keys[0], 0, tree)
		hs.put(keys[0])
	})
	if allocs != 0 {
		t.Fatalf("table lookups allocate %.1f/op, want 0", allocs)
	}
}
