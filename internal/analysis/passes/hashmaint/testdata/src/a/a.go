// Package a models the checker's fingerprinted global state for the
// hashmaint pass: component writes must pair with hsum/encSize maintenance,
// directly or through a helper.
package a

import "slices"

type NodeState struct{ V int }

// InFlight mirrors mc.InFlight: an item is shared by every state holding it
// and carries its queue position and component hash.
type InFlight struct {
	pos   int
	chash uint64
}

// GState mirrors mc.GState's fingerprint structure: every component is a
// slice (nodes parallel to the sorted ids, stale kept sorted), and node
// states and in-flight items are held by pointer and shared.
type GState struct {
	ids     []int
	nodes   []*NodeState
	msgs    []*InFlight
	stale   []int
	resets  int
	hsum    uint64
	encSize int
}

// swapNode maintains the fingerprint directly.
func (g *GState) swapNode(i int, ns *NodeState, h uint64) {
	g.nodes[i] = ns
	g.hsum += h
}

// clearStale maintains hsum and encSize around a slice delete.
func (g *GState) clearStale(i int, h uint64) {
	g.stale = slices.Delete(g.stale, i, i+1)
	g.hsum -= h
	g.encSize -= 16
}

// addMsg maintains hsum and encSize.
func (g *GState) addMsg(m InFlight) {
	g.msgs = append(g.msgs, &m)
	g.hsum += m.chash
	g.encSize += 8
}

// reposition moves the j-th item one position up the way removeMsgAt does:
// on a copy, stored in place of the shared original, with hsum moved along.
func (g *GState) reposition(j int, h uint64) {
	moved := *g.msgs[j]
	moved.pos--
	moved.chash = h
	g.hsum += moved.chash - g.msgs[j].chash
	g.msgs[j] = &moved
}

// replaceUnpaired swaps a shared item for another and leaves hsum behind.
func (g *GState) replaceUnpaired(j int, m InFlight) {
	g.msgs[j] = &m // want `replaceUnpaired writes GState.msgs without a paired incremental hsum update`
}

// repositionInPlace edits the shared item itself: every other state holding
// it sees the new position and hash, however well hsum is kept here.
func (g *GState) repositionInPlace(j int, h uint64) {
	g.hsum += h - g.msgs[j].chash
	g.msgs[j].pos--     // want `repositionInPlace writes through an element of GState.msgs`
	g.msgs[j].chash = h // want `repositionInPlace writes through an element of GState.msgs`
}

// retune writes through a shared node state.
func (g *GState) retune(i int) {
	g.nodes[i].V = 1 // want `retune writes through an element of GState.nodes`
}

// viaHelper maintains through addMsg: the call-graph fixpoint covers the
// resets bump too.
func (g *GState) viaHelper(m InFlight) {
	g.addMsg(m)
	g.resets++
}

// forget mutates a component with no fingerprint maintenance anywhere.
func (g *GState) forget(m *InFlight) {
	g.msgs = append(g.msgs, m) // want `forget writes GState.msgs without a paired incremental hsum update`
}

// clobber rewrites a node element unmaintained.
func (g *GState) clobber(i int) {
	g.nodes[i] = &NodeState{} // want `clobber writes GState.nodes`
}

// drop deletes a stale entry unmaintained.
func (g *GState) drop(i int) {
	g.stale = slices.Delete(g.stale, i, i+1) // want `drop writes GState.stale`
}

// reindex rewrites the shared id list, which carries no hash of its own:
// not a component, not flagged.
func (g *GState) reindex(ids []int) {
	g.ids = ids
}

// literal builds a GState with a component but no fingerprint key.
func literal(ns []*NodeState) *GState {
	return &GState{nodes: ns} // want `literal writes GState.nodes`
}

// literalWithGuard carries the fingerprint explicitly.
func literalWithGuard(ns []*NodeState, h uint64) *GState {
	return &GState{nodes: ns, hsum: h}
}

// scrub resets components wholesale without touching the fingerprint: both
// writes are flagged, the whole-field reset and the plain counter alike.
func (g *GState) scrub() {
	g.msgs = nil // want `scrub writes GState.msgs`
	g.resets = 0 // want `scrub writes GState.resets`
}
