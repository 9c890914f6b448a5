// Package props defines safety properties checked over a (partial) global
// view of a distributed system.
//
// Properties play three roles in CrystalBall, mirroring the paper: the model
// checker evaluates them on every explored state (consequence prediction),
// the immediate safety check evaluates them on the speculative post-handler
// state, and experiment harnesses evaluate them on the live global state to
// count "ground truth" inconsistencies.
package props

import (
	"slices"

	"crystalball/internal/sm"
)

// NodeView is one node's state as visible to a property: the service state
// machine plus the runtime-owned pending-timer set (the paper's local state
// includes "the status of timers").
type NodeView struct {
	Svc    sm.Service
	Timers sm.TimerSet // shared with whoever filled the view: read-only
}

// TimerPending reports whether the named timer is scheduled.
func (v NodeView) TimerPending(t sm.TimerID) bool { return v.Timers.Has(t) }

// View is a consistent (possibly partial) snapshot of the system: the
// neighborhood snapshot fed to the model checker, or the full system in
// experiment harnesses.
//
// The layout is two parallel slices kept in ascending id order — ids and
// the NodeView values aligned with it — and no map: every walk is in id
// order by construction. A property walks the view by position, over IDs
// and Nodes together; Get, one binary search, is for looking up a peer a
// node names. Filling ascending (GState.FillView) takes Add's append path,
// one comparison per node; filling out of order (the controller, from a Go
// map) inserts in place.
//
// Views are reusable: Reset empties a view while keeping both slices'
// storage, so a hot loop — the checker evaluating properties on every
// explored state, the runtime's immediate safety check — can refill one
// view per worker instead of allocating per state.
//
// Ownership rules: the NodeViews belong to the view — do not retain a
// *NodeView, the IDs slice or the Nodes slice across an Add of a new id or a
// Reset. A view
// may be refilled and read by one goroutine at a time; concurrent workers
// each use their own.
type View struct {
	ids   []sm.NodeID // ascending
	nodes []NodeView  // parallel to ids
}

// NewView returns an empty view.
func NewView() *View { return &View{} }

// Reset empties the view, retaining its storage for reuse.
func (v *View) Reset() {
	clear(v.nodes) // drop the service references so a pooled view pins no state
	v.ids, v.nodes = v.ids[:0], v.nodes[:0]
}

// Add inserts a node's view, replacing any existing entry for id. An id that
// sorts after every id in the view is appended.
//
//crystal:hotpath
func (v *View) Add(id sm.NodeID, svc sm.Service, timers sm.TimerSet) {
	nv := NodeView{Svc: svc, Timers: timers}
	if n := len(v.ids); n == 0 || v.ids[n-1] < id {
		v.ids, v.nodes = append(v.ids, id), append(v.nodes, nv)
		return
	}
	i, present := slices.BinarySearch(v.ids, id)
	if present {
		v.nodes[i] = nv
		return
	}
	v.ids = slices.Insert(v.ids, i, id)
	v.nodes = slices.Insert(v.nodes, i, nv)
}

// Get returns the node view or nil.
func (v *View) Get(id sm.NodeID) *NodeView {
	if i, ok := slices.BinarySearch(v.ids, id); ok {
		return &v.nodes[i]
	}
	return nil
}

// IDs returns the node ids in the view in ascending order, for
// deterministic property evaluation and reporting. The slice is the view's
// own: callers must treat it as read-only and not retain it across an Add
// of a new id or a Reset.
func (v *View) IDs() []sm.NodeID { return v.ids }

// Nodes returns the node views parallel to IDs: Nodes()[i] is the view of
// IDs()[i]. The slice is the view's own, under the same rules as IDs.
//
//crystal:hotpath
func (v *View) Nodes() []NodeView { return v.nodes }

// Property is a user- or developer-specified safety property (paper Figure
// 7: "Safety Properties" feed the consequence-prediction checker).
type Property struct {
	// Name identifies the property in reports ("ChildrenSiblingsDisjoint").
	Name string
	// Check returns true when the view satisfies the property. A view
	// that lacks the nodes needed to evaluate the property must return
	// true (no false positives from partial information).
	Check func(v *View) bool
}

// Set is an ordered collection of properties.
type Set []Property

// Check evaluates all properties and returns the names of those violated.
func (s Set) Check(v *View) []string {
	var violated []string
	for _, p := range s {
		if !p.Check(v) {
			violated = append(violated, p.Name)
		}
	}
	return violated
}

// Holds reports whether every property holds on the view.
func (s Set) Holds(v *View) bool {
	for _, p := range s {
		if !p.Check(v) {
			return false
		}
	}
	return true
}
