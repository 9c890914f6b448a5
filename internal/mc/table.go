package mc

import "slices"

// The engine's claim tables are keyed by fingerprints, which are Mix64
// avalanched already, so none hashes its key again: the slot index is the
// key's own low bits. Each is open addressing with linear probing over a
// power-of-two slot array that starts at tableMin slots and doubles when an
// insertion would fill it past 3/4. Nothing in a slot is a pointer, so the
// collector never looks inside a table. A table that is cleared keeps its
// slots for the next search; what it accounts (bytes) is what a table grown
// from empty holds for the same entries, so a search's mem= is a function of
// what it claimed and not of the capacity it inherited.

// tableMin is the slot count a table starts at.
const tableMin = 16

// slotsFor returns the slots a table grown from empty holds for n entries.
func slotsFor(n int) int {
	if n == 0 {
		return 0
	}
	s := tableMin
	for 4*n > 3*s {
		s <<= 1
	}
	return s
}

// full reports whether a table of n entries in slots slots must grow before
// it takes one more.
func full(n, slots int) bool { return 4*(n+1) > 3*slots }

// visitedTable maps a state fingerprint to the tree entry that claimed it.
// A slot is one uint64: the fingerprint's high 32 bits over 1 + the entry's
// index (0 marks a free slot). A tag match is confirmed against the entry's
// full hash, and the entry is what every caller reads anyway, for its depth;
// growing reads each entry's hash back from the tree to place it.
type visitedTable struct {
	slots []uint64
	n     int
}

// probe returns the slot holding h in t's entries, and true, or the free
// slot that ends h's probe sequence, and false. The table has slots.
//
//crystal:hotpath
func (v *visitedTable) probe(h uint64, t *Tree) (uint64, bool) {
	mask := uint64(len(v.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := v.slots[i]
		if s == 0 {
			return i, false
		}
		if s>>32 == h>>32 && t.entries.at(int(uint32(s))-1).hash == h {
			return i, true
		}
	}
}

// get returns the index and entry of the claim of h in t, or -1 and nil.
//
//crystal:hotpath
func (v *visitedTable) get(h uint64, t *Tree) (int32, *entry) {
	if v.n == 0 {
		return -1, nil
	}
	i, ok := v.probe(h, t)
	if !ok {
		return -1, nil
	}
	idx := int32(uint32(v.slots[i])) - 1
	return idx, t.entries.at(int(idx))
}

// put records that t's entry idx, whose hash is h, claims h: in h's slot if
// an earlier entry claimed it, else in a new one.
//
//crystal:hotpath
func (v *visitedTable) put(h uint64, idx int32, t *Tree) {
	slot := h>>32<<32 | uint64(uint32(idx+1))
	var i uint64
	if len(v.slots) > 0 {
		var ok bool
		if i, ok = v.probe(h, t); ok {
			v.slots[i] = slot
			return
		}
	}
	if full(v.n, len(v.slots)) {
		v.grow(t)
		i, _ = v.probe(h, t)
	}
	v.slots[i] = slot
	v.n++
}

// grow doubles the table (tableMin slots the first time) and re-places every
// slot by the hash of the entry it names.
func (v *visitedTable) grow(t *Tree) {
	old := v.slots
	v.slots = make([]uint64, max(tableMin, 2*len(old)))
	mask := uint64(len(v.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := t.entries.at(int(uint32(s))-1).hash & mask
		for v.slots[i] != 0 {
			i = (i + 1) & mask
		}
		v.slots[i] = s
	}
}

// clear empties the table and keeps its slots.
func (v *visitedTable) clear() {
	if v.n > 0 {
		clear(v.slots)
		v.n = 0
	}
}

// bytes returns the heap bytes of a table grown from empty to v's entries.
func (v *visitedTable) bytes() int64 { return 8 * int64(slotsFor(v.n)) }

// fingerprints returns the claimed fingerprints in ascending order.
func (v *visitedTable) fingerprints(t *Tree) []uint64 {
	out := make([]uint64, 0, v.n)
	for _, s := range v.slots {
		if s != 0 {
			out = append(out, t.entries.at(int(uint32(s))-1).hash)
		}
	}
	slices.Sort(out)
	return out
}

// table maps uint64 keys to int32 values — consequence prediction's (node,
// local state) claims — over parallel key and value arrays, a key of 0
// marking a free slot. Key 0 itself, which a local hash can be, lives in a
// side slot.
type table struct {
	keys    []uint64
	vals    []int32
	n       int // keys in the slots
	zero    bool
	zeroVal int32
}

// probe returns the slot of keys holding k, and true, or the free slot that
// ends k's probe sequence, and false: the lookup of table and hashSet. k is
// not 0, and keys has slots.
//
//crystal:hotpath
func probe(keys []uint64, k uint64) (uint64, bool) {
	mask := uint64(len(keys) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		switch keys[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns k's value and whether k is present.
//
//crystal:hotpath
func (t *table) get(k uint64) (int32, bool) {
	if k == 0 {
		return t.zeroVal, t.zero
	}
	if t.n == 0 {
		return 0, false
	}
	if i, ok := probe(t.keys, k); ok {
		return t.vals[i], true
	}
	return 0, false
}

// put sets k's value to v and reports whether k was absent.
//
//crystal:hotpath
func (t *table) put(k uint64, v int32) bool {
	if k == 0 {
		added := !t.zero
		t.zero, t.zeroVal = true, v
		return added
	}
	var i uint64
	if len(t.keys) > 0 {
		var ok bool
		if i, ok = probe(t.keys, k); ok {
			t.vals[i] = v
			return false
		}
	}
	if full(t.n, len(t.keys)) {
		t.grow()
		i, _ = probe(t.keys, k)
	}
	t.keys[i], t.vals[i] = k, v
	t.n++
	return true
}

// grow doubles the table (tableMin slots the first time) and re-places every
// key.
func (t *table) grow() {
	keys, vals := t.keys, t.vals
	t.keys = make([]uint64, max(tableMin, 2*len(keys)))
	t.vals = make([]int32, len(t.keys))
	for j, k := range keys {
		if k != 0 {
			i, _ := probe(t.keys, k)
			t.keys[i], t.vals[i] = k, vals[j]
		}
	}
}

// clear empties the table and keeps its slots.
//
//crystal:hotpath
func (t *table) clear() {
	if t.n > 0 {
		clear(t.keys)
		t.n = 0
	}
	t.zero, t.zeroVal = false, 0
}

// bytes returns the heap bytes of a table grown from empty to t's keys.
func (t *table) bytes() int64 { return 12 * int64(slotsFor(t.n)) }

// hashSet is a set of uint64 keys — the fingerprints of the clean leaves an
// engine claimed at its depth bound, the distinct local states, a worker's
// proposed fingerprints — at one uint64 a slot: table's slots with no value
// array. Key 0, which a local hash can be, lives in a side slot, as in table.
type hashSet struct {
	keys []uint64
	n    int // keys in the slots
	zero bool
}

// has reports whether k is in the set.
//
//crystal:hotpath
func (s *hashSet) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	_, ok := probe(s.keys, k)
	return ok
}

// put adds k and reports whether it was absent.
//
//crystal:hotpath
func (s *hashSet) put(k uint64) bool {
	if k == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	var i uint64
	if len(s.keys) > 0 {
		var ok bool
		if i, ok = probe(s.keys, k); ok {
			return false
		}
	}
	if full(s.n, len(s.keys)) {
		s.grow()
		i, _ = probe(s.keys, k)
	}
	s.keys[i] = k
	s.n++
	return true
}

// remove takes k out of the set, if it is there. The keys after k in its run
// move back to where a set that never held k would hold them (backward-shift
// deletion), so every probe sequence still ends at its first free slot.
func (s *hashSet) remove(k uint64) {
	if k == 0 {
		s.zero = false
		return
	}
	if s.n == 0 {
		return
	}
	i, ok := probe(s.keys, k)
	if !ok {
		return
	}
	mask := uint64(len(s.keys) - 1)
	for j := (i + 1) & mask; s.keys[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at i unless its home slot lies
		// cyclically after i, up to j.
		if home := s.keys[j] & mask; (j-home)&mask >= (j-i)&mask {
			s.keys[i], i = s.keys[j], j
		}
	}
	s.keys[i] = 0
	s.n--
}

// grow doubles the set (tableMin slots the first time) and re-places every
// key.
func (s *hashSet) grow() {
	keys := s.keys
	s.keys = make([]uint64, max(tableMin, 2*len(keys)))
	for _, k := range keys {
		if k != 0 {
			i, _ := probe(s.keys, k)
			s.keys[i] = k
		}
	}
}

// len returns the number of keys present.
func (s *hashSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// clear empties the set and keeps its slots.
//
//crystal:hotpath
func (s *hashSet) clear() {
	if s.n > 0 {
		clear(s.keys)
		s.n = 0
	}
	s.zero = false
}

// bytes returns the heap bytes of a set grown from empty to s's keys.
func (s *hashSet) bytes() int64 { return 8 * int64(slotsFor(s.n)) }

// sorted returns the keys present in ascending order.
func (s *hashSet) sorted() []uint64 {
	out := make([]uint64, 0, s.len())
	if s.zero {
		out = append(out, 0)
	}
	for _, k := range s.keys {
		if k != 0 {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}
