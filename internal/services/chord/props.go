package chord

import (
	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// PropPredSelfImpliesSuccSelf is the paper's property "If Successor is
// Self, So Is Predecessor" (stated in its contrapositive-friendly form): a
// node whose predecessor points to itself must be alone, so its successor
// list must not name other nodes (Figure 10's violation).
var PropPredSelfImpliesSuccSelf = props.Property{
	Name: "PredSelfImpliesSuccSelf",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for i := range nodes {
			r, _ := nodes[i].Svc.(*Ring)
			if r == nil || !r.Joined {
				continue
			}
			if r.Pred != r.Self {
				continue
			}
			for _, s := range r.Succs {
				if s != r.Self {
					return false
				}
			}
		}
		return true
	},
}

// PropNodeOrdering is the paper's "Node Ordering Constraint": if node A has
// predecessor P and successor S, the id of S must not lie between P and A
// on the ring (Figure 11's violation).
var PropNodeOrdering = props.Property{
	Name: "NodeOrderingConstraint",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for i := range nodes {
			r, _ := nodes[i].Svc.(*Ring)
			if r == nil || !r.Joined || r.Pred == sm.NoNode || r.Pred == r.Self {
				continue
			}
			for _, s := range r.Succs {
				if s == r.Self || s == r.Pred {
					continue
				}
				if Between(s, r.Pred, r.Self) {
					return false
				}
			}
		}
		return true
	},
}

// PropNoForeignSelfLoop (auxiliary): a node must not appear in its own
// successor list ahead of other live members — a self-loop alongside other
// nodes disconnects the ring (the class of damage the paper attributes to
// an incorrect successor).
var PropNoForeignSelfLoop = props.Property{
	Name: "NoForeignSelfLoop",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for i := range nodes {
			r, _ := nodes[i].Svc.(*Ring)
			if r == nil || !r.Joined || len(r.Succs) < 2 {
				continue
			}
			if r.Succs[0] == r.Self {
				for _, s := range r.Succs[1:] {
					if s != r.Self {
						return false
					}
				}
			}
		}
		return true
	},
}

// ringMaxNodes bounds the stack scratch of the global ring check; larger
// views are passed over rather than checked, per the defensive half of
// the GlobalProperty contract.
const ringMaxNodes = 64

// PropGlobalRingConsistency is the cross-node "at most one ring"
// invariant: the nearest-successor pointers of the joined nodes form a
// functional graph, and that graph must contain at most one cycle. A
// second cycle is a partitioned ring — two node groups that each believe
// they close the DHT — which no single node's view can detect: every
// local successor relation can look healthy while the global graph is
// split. Edges to nodes that are absent or not joined are terminal
// (transient states during joins and after resets walk off the graph,
// they do not close cycles).
var PropGlobalRingConsistency = props.GlobalProperty{
	Name: "GlobalRingConsistency",
	Check: func(v props.GlobalView) bool {
		ids, nodes := v.IDs(), v.Nodes()
		if len(ids) > ringMaxNodes {
			return true
		}
		// Collect the joined nodes and their nearest-successor edges as
		// indices; -1 marks a terminal edge.
		var (
			rid   [ringMaxNodes]sm.NodeID
			rings [ringMaxNodes]*Ring
			succ  [ringMaxNodes]int
		)
		n := 0
		for i, id := range ids {
			r, _ := nodes[i].Svc.(*Ring)
			if r == nil || !r.Joined || len(r.Succs) == 0 {
				continue
			}
			rid[n], rings[n] = id, r
			n++
		}
		for i := 0; i < n; i++ {
			s := rings[i].Succs[0]
			succ[i] = -1
			for j := 0; j < n; j++ {
				if rid[j] == s {
					succ[i] = j
					break
				}
			}
		}
		// Count cycles with the standard three-colour walk: grey marks
		// the walk in progress, black a finished node; hitting grey
		// closes a new cycle.
		var color [ringMaxNodes]uint8
		cycles := 0
		for s := 0; s < n; s++ {
			if color[s] != 0 {
				continue
			}
			u := s
			for u >= 0 && color[u] == 0 {
				color[u] = 1
				u = succ[u]
			}
			if u >= 0 && color[u] == 1 {
				cycles++
				if cycles > 1 {
					return false
				}
			}
			for u = s; u >= 0 && color[u] == 1; u = succ[u] {
				color[u] = 2
			}
		}
		return true
	},
}

// Properties is the default Chord safety-property set.
var Properties = props.Set{
	PropPredSelfImpliesSuccSelf,
	PropNodeOrdering,
	PropNoForeignSelfLoop,
}

// GlobalProperties is the default Chord cross-node property set.
var GlobalProperties = props.GlobalSet{PropGlobalRingConsistency}
