package randtree

import "crystalball/internal/props"

// PropChildrenSiblingsDisjoint is the paper's first RandTree safety
// property: "children and siblings are disjoint lists" (Figure 2).
var PropChildrenSiblingsDisjoint = props.Property{
	Name: "ChildrenSiblingsDisjoint",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for i := range nodes {
			t, _ := nodes[i].Svc.(*Tree)
			if t == nil {
				continue
			}
			for c := range t.Children {
				if t.Siblings[c] {
					return false
				}
			}
		}
		return true
	},
}

// PropRootNotChildOrSibling: a node that considers itself (joined) root
// must not appear in any view node's children or sibling list (paper
// Figure 9: "Root (9) appears as a child").
var PropRootNotChildOrSibling = props.Property{
	Name: "RootNotChildOrSibling",
	Check: func(v *props.View) bool {
		ids, nodes := v.IDs(), v.Nodes()
		for i, rid := range ids {
			r, _ := nodes[i].Svc.(*Tree)
			if r == nil || !r.Joined || !r.IsRoot {
				continue
			}
			for j := range nodes {
				if j == i {
					continue
				}
				o, _ := nodes[j].Svc.(*Tree)
				if o == nil {
					continue
				}
				if o.Children[rid] || o.Siblings[rid] {
					return false
				}
			}
		}
		return true
	},
}

// PropRootHasNoSiblings: "root node should contain no sibling pointers".
var PropRootHasNoSiblings = props.Property{
	Name: "RootHasNoSiblings",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for i := range nodes {
			t, _ := nodes[i].Svc.(*Tree)
			if t == nil {
				continue
			}
			if t.Joined && t.IsRoot && len(t.Siblings) > 0 {
				return false
			}
		}
		return true
	},
}

// PropRecoveryTimer: "the recovery timer should always be scheduled" for a
// joined node with a non-empty peer list (the property from the MaceMC
// work whose violation CrystalBall was first to observe).
var PropRecoveryTimer = props.Property{
	Name: "RecoveryTimerRuns",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for i := range nodes {
			nv := &nodes[i]
			t, _ := nv.Svc.(*Tree)
			if t == nil {
				continue
			}
			if t.Joined && len(t.Peers) > 0 && !nv.TimerPending(TimerRecovery) {
				return false
			}
		}
		return true
	},
}

// Properties is the default RandTree safety-property set used by the
// experiments.
var Properties = props.Set{
	PropChildrenSiblingsDisjoint,
	PropRootNotChildOrSibling,
	PropRootHasNoSiblings,
	PropRecoveryTimer,
}
