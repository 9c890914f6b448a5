package props

// Global (cross-node) properties.
//
// A Property is written defensively: the view it receives may cover only a
// neighborhood snapshot, so it must return true whenever a node it needs is
// absent. That contract makes a whole class of distributed bugs — replicas
// that silently diverge — unstatable, because divergence is only meaningful
// when two nodes can be compared side by side.
//
// A GlobalProperty closes that gap. The checker evaluates it over a
// GlobalView assembled from GState.FillView, which spans every node of the
// state being expanded, so the property may compare nodes against each
// other (replica convergence, agreement, ring consistency). The defensive
// half of the contract still stands: when a comparison needs a node the
// view does not hold — live neighborhood snapshots can be partial — the
// property must return true rather than guess. Evaluation is a pure
// function of the view: no clocks, no randomness, no retained state. That
// purity is what lets the sharded search (internal/dist) evaluate global
// properties independently per shard and still report the exact violation
// set of the serial engine.

// GlobalView is the multi-node view a GlobalProperty is checked against.
// It wraps the engine's pooled *View (no copy, no allocation): the
// embedded methods — IDs, Get, Has — read the same filled NodeViews the
// local property set just checked.
type GlobalView struct {
	*View
}

// Global wraps a filled view for global-property evaluation.
func Global(v *View) GlobalView { return GlobalView{View: v} }

// GlobalProperty is a safety property over a multi-node view. Check
// returns false when the property is violated. It must be deterministic,
// must not mutate the view, and must return true when the view lacks the
// nodes the comparison needs.
type GlobalProperty struct {
	Name  string
	Check func(v GlobalView) bool
}

// GlobalSet is an ordered collection of global properties.
type GlobalSet []GlobalProperty

// AppendViolated appends the names of the violated properties to dst and
// returns it. The checker's hot path uses this to merge global violations
// into the local set's result without an extra allocation when everything
// holds.
func (s GlobalSet) AppendViolated(dst []string, v GlobalView) []string {
	for _, p := range s {
		if !p.Check(v) {
			dst = append(dst, p.Name)
		}
	}
	return dst
}
