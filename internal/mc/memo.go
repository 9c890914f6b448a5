package mc

import "crystalball/internal/sm"

// memoCap is the number of effects a memo holds before it is emptied. It
// bounds what one worker's memo pins — node states and sent messages that
// would otherwise be garbage — and is far above what the inputs the checker
// runs repeat: tens of distinct effects on bulletprime, a few thousand on
// paxos.
const memoCap = 1 << 14

// memoShift is the size of the effect slab's first chunk, as a shift: a live
// round that memoizes a few dozen effects pays for a few dozen.
const memoShift = 4

// effect is the node-level result of one handler execution: the executing
// node's state afterwards — finalized, on the heap, immutable, and shared by
// every successor that installs it — and what the handler sent, as
// memo.sends[lo:hi]. It is keyed by everything the handler read: the node's
// local state (its two hashes over the same bytes, so the key assumes no more
// about collisions than the visited table does), the event's key and the
// consumed in-flight item's component hash, which pins a delivery's payload
// (0 when the event consumes none). The random stream is a function of the
// same (edgeSeed), so it needs no place in the key.
type effect struct {
	lhash, chash uint64
	item         uint64
	key          sm.EventKey
	ns           *NodeState
	lo, hi       int32
}

// memo maps (node local state, event, consumed item) to the effect the
// handler had, for one Expander's scratch. With each send it keeps the
// itemPrefix of the item the send becomes (prefixes, parallel to sends; 0
// until a successor first adds the item: dispatchSends), so a hit hashes
// nothing but the items' queue positions, and the heap item the send last
// became (items, parallel to sends; nil until a successor that built it is
// published), so a hit whose send lands at that item's queue position shares
// the item instead of building another (addItem). A held item pins the block
// its publish allocated (scratch.publish) and its message until the memo
// empties. The table is open addressing with linear probing over a
// power-of-two slot array, the slot taken from the key's fingerprint bits: a
// slot holds 1 + the effect's index (0 marks a free slot), and the table is
// kept at most half full. It starts empty, doubles from 64 slots, and is
// emptied — table, effects and arenas — once it holds memoCap effects. The
// effects are a slab, so a memo that grows copies none of them: most memos
// live one short live round.
type memo struct {
	slots    []int32
	effects  slab[effect]
	sends    []sm.Outgoing // every effect's sends, back to back
	prefixes []uint64      // the sends' item prefixes
	items    []*InFlight   // the heap item each send last became
}

// newMemo returns an empty memo.
func newMemo() *memo {
	m := new(memo)
	m.reset()
	return m
}

// reset empties the memo and lets go of its storage.
func (m *memo) reset() { *m = memo{effects: slab[effect]{shift: memoShift}} }

// clear empties the memo and keeps its storage for the next effects: the
// node states and messages the effects held are let go.
func (m *memo) clear() {
	clear(m.slots)
	m.effects.reset()
	m.sends = wipe(m.sends)
	m.prefixes = m.prefixes[:0]
	m.items = wipe(m.items)
}

// memoHash is the probe start of key k at a node whose local hash is lhash,
// consuming the item with component hash item.
//
//crystal:hotpath
func memoHash(lhash, item uint64, k *sm.EventKey) uint64 {
	h := lhash ^ item ^ k.Arg ^ uint64(k.Kind)<<56 ^ uint64(uint32(k.From))<<24 ^ uint64(uint32(k.Node))
	return sm.FNV64aString(sm.Mix64(h), k.Name)
}

// find returns the effect of k at the local state hashed (lhash, chash),
// consuming item, or nil.
//
//crystal:hotpath
func (m *memo) find(lhash, chash, item uint64, k *sm.EventKey) *effect {
	if len(m.slots) == 0 {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	for i := memoHash(lhash, item, k) & mask; ; i = (i + 1) & mask {
		j := m.slots[i]
		if j == 0 {
			return nil
		}
		if f := m.effects.at(int(j - 1)); f.lhash == lhash && f.chash == chash && f.item == item && f.key == *k {
			return f
		}
	}
}

// add records f — its key and its node state, which must be finalized, on
// the heap and never written again — with the handler's sends, their item
// prefixes and their heap items, which are copied into the arenas, and
// returns the effect's item slots. The caller has just missed f's key, so it
// is not in the table.
//
//crystal:hotpath
func (m *memo) add(f *effect, sends []sm.Outgoing, prefixes []uint64, items []*InFlight) []*InFlight {
	if m.effects.n == memoCap {
		m.reset()
	}
	if 2*(m.effects.n+1) > len(m.slots) {
		m.grow()
	}
	e := *f
	e.lo = int32(len(m.sends))
	m.sends = append(m.sends, sends...)
	m.prefixes = append(m.prefixes, prefixes...)
	m.items = append(m.items, items...)
	e.hi = int32(len(m.sends))
	m.place(m.effects.push(e))
	return m.items[e.lo:e.hi]
}

// place puts the j-th effect in the first free slot of its probe sequence.
//
//crystal:hotpath
func (m *memo) place(j int) {
	f := m.effects.at(j)
	mask := uint64(len(m.slots) - 1)
	i := memoHash(f.lhash, f.item, &f.key) & mask
	for m.slots[i] != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = int32(j + 1)
}

// grow doubles the table (64 slots the first time) and re-places every
// effect.
func (m *memo) grow() {
	m.slots = make([]int32, max(64, 2*len(m.slots)))
	for j := 0; j < m.effects.n; j++ {
		m.place(j)
	}
}
