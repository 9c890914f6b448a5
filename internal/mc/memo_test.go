package mc

import (
	"testing"

	"crystalball/internal/sm"
)

// TestMemoTableEmptiesAtCap: the memo finds every effect it holds by its
// whole key, stays at most half full as it doubles, and once it holds
// memoCap effects the next one empties it — table, effects and arena — so
// the old effects are gone and the new one and its sends are found.
func TestMemoTableEmptiesAtCap(t *testing.T) {
	m := newMemo()
	ns := &NodeState{}
	key := func(i int) (lhash, chash, item uint64, k sm.EventKey) {
		// Keys that differ in one field at a time share the others.
		return uint64(i / 4), uint64(i / 4), uint64(i % 2), sm.EventKey{Kind: 'T', Node: 1, Name: []string{"a", "b"}[i%4/2]}
	}
	add := func(i int) {
		lhash, chash, item, k := key(i)
		m.add(&effect{lhash: lhash, chash: chash, item: item, key: k, ns: ns}, []sm.Outgoing{{To: sm.NodeID(i), Msg: ping{N: i}}}, []uint64{0}, []*InFlight{nil})
	}
	found := func(i int) bool {
		lhash, chash, item, k := key(i)
		f := m.find(lhash, chash, item, &k)
		return f != nil && f.ns == ns && f.hi == f.lo+1 && m.sends[f.lo].To == sm.NodeID(i)
	}
	for i := 0; i < memoCap; i++ {
		add(i)
		if 2*m.effects.n > len(m.slots) {
			t.Fatalf("%d effects in %d slots: more than half full", m.effects.n, len(m.slots))
		}
	}
	for i := 0; i < memoCap; i++ {
		if !found(i) {
			t.Fatalf("effect %d of %d not found by its key", i, memoCap)
		}
	}
	if lhash, chash, _, k := key(0); m.find(lhash, chash+1, 0, &k) != nil {
		t.Fatal("a key differing only in chash found an effect")
	}
	add(memoCap)
	if m.effects.n != 1 || len(m.sends) != 1 || len(m.items) != 1 || len(m.slots) != 64 || !found(memoCap) || found(0) {
		t.Fatalf("after emptying: %d effects, %d sends, %d slots, new one found %v, old one found %v", m.effects.n, len(m.sends), len(m.slots), found(memoCap), found(0))
	}
	m.reset()
	if found(memoCap) || m.slots != nil || m.effects.chunks != nil || m.sends != nil || m.items != nil {
		t.Fatal("a reset memo still holds its storage")
	}
}
