package paxos

import (
	"crystalball/internal/props"
)

// PropAtMostOneChosen is the original Paxos safety property installed in
// the paper's steering experiment: "at most one value can be chosen, across
// all nodes".
var PropAtMostOneChosen = props.Property{
	Name: "AtMostOneValueChosen",
	Check: func(v *props.View) bool {
		var chosen []int64
		for _, nv := range v.Nodes() {
			p, _ := nv.Svc.(*Paxos)
			if p == nil {
				continue
			}
			for _, val := range p.ChosenVals {
				found := false
				for _, c := range chosen {
					if c == val {
						found = true
						break
					}
				}
				if !found {
					chosen = append(chosen, val)
				}
			}
		}
		return len(chosen) <= 1
	},
}

// PropCrossNodeAgreement is the agreement half of PropAtMostOneChosen
// restated as a cross-node property: no two distinct nodes may have
// chosen different values. Every violation of it is also a violation of
// PropAtMostOneChosen (two nodes disagreeing means two values exist), but
// not conversely — a single node with two chosen values is a local
// inconsistency this property does not judge. It exercises the global
// property engine on a service whose bugs predate it.
var PropCrossNodeAgreement = props.GlobalProperty{
	Name: "CrossNodeAgreement",
	Check: func(v props.GlobalView) bool {
		nodes := v.Nodes()
		for i := range nodes {
			pa, _ := nodes[i].Svc.(*Paxos)
			if pa == nil || len(pa.ChosenVals) == 0 {
				continue
			}
			for j := i + 1; j < len(nodes); j++ {
				pb, _ := nodes[j].Svc.(*Paxos)
				if pb == nil {
					continue
				}
				for _, x := range pa.ChosenVals {
					for _, y := range pb.ChosenVals {
						if x != y {
							return false
						}
					}
				}
			}
		}
		return true
	},
}

// Properties is the default Paxos property set.
var Properties = props.Set{PropAtMostOneChosen}

// GlobalProperties is the default Paxos cross-node property set.
var GlobalProperties = props.GlobalSet{PropCrossNodeAgreement}
