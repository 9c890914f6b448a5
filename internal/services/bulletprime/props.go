package bulletprime

import (
	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// bulletOf returns the Bullet state of the named peer id, or nil.
func bulletOf(v *props.View, id sm.NodeID) *Bullet {
	nv := v.Get(id)
	if nv == nil {
		return nil
	}
	b, _ := nv.Svc.(*Bullet)
	return b
}

// PropFileMapConsistency is the paper's Bullet′ property: "Sender's file
// map and receivers view of it should be identical." The sound, sender-side
// formulation: every block a sender holds must be either already advertised
// to each of its receivers or still pending in that receiver's shadow map —
// otherwise the receiver can never learn about the block. Bug 1 (shadow
// cleared on a refused enqueue) and bug 2 (empty shadow on peering) violate
// it.
var PropFileMapConsistency = props.Property{
	Name: "SenderReceiverFileMapsAgree",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for i := range nodes {
			s, _ := nodes[i].Svc.(*Bullet)
			if s == nil {
				continue
			}
			have := s.have()
			for i := range s.table {
				if !s.table[i].peered() {
					continue
				}
				shadow, adv := s.set(i, shadowSet), s.set(i, advertisedSet)
				for w := range have {
					if have[w]&^(shadow[w]|adv[w]) != 0 {
						return false // never advertised, never will be
					}
				}
			}
		}
		return true
	},
}

// PropNoPhantomBlocks is the receiver-side complement: a receiver must not
// believe a sender holds blocks the sender does not have. A sender reset
// combined with bug 3 (stale per-sender file maps surviving transport
// errors) leaves such phantom blocks, which skew the rarest-random request
// policy. The inconsistency is transiently reachable even in fixed code
// (between a reset and the receiver's error observation), so it belongs to
// the debugging property set rather than the steering set.
var PropNoPhantomBlocks = props.Property{
	Name: "NoPhantomBlocks",
	Check: func(v *props.View) bool {
		nodes := v.Nodes()
		for n := range nodes {
			r, _ := nodes[n].Svc.(*Bullet)
			if r == nil {
				continue
			}
			for i := range r.table {
				s := bulletOf(v, r.table[i].id)
				if s == nil {
					continue
				}
				// An absent file map is all zero words.
				fm, have := r.set(i, fileMapSet), s.have()
				for w := range fm {
					if fm[w]&^have[w] != 0 {
						return false
					}
				}
			}
		}
		return true
	},
}

// Properties is the default Bullet′ property set (sound for steering).
var Properties = props.Set{PropFileMapConsistency}

// DebugProperties adds the receiver-side check used in deep online
// debugging runs.
var DebugProperties = props.Set{PropFileMapConsistency, PropNoPhantomBlocks}
