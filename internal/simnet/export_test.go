package simnet

import "crystalball/internal/sm"

// Kill marks a node dead: connections break silently and subsequent sends to
// it fail with ConnError at the sender.
func (n *Network) Kill(id sm.NodeID) {
	st := n.state(id)
	st.alive = false
	for k, c := range n.conns {
		if k.a == id || k.b == id {
			c.close(id)
		}
	}
}

// Restart brings a killed node back with a fresh incarnation.
func (n *Network) Restart(id sm.NodeID) {
	st := n.state(id)
	st.incarnation++
	st.alive = true
}

// Connected reports whether a live connection object exists between a and b.
func (n *Network) Connected(a, b sm.NodeID) bool {
	c, ok := n.conns[keyFor(a, b, false)]
	return ok && !c.closed
}
