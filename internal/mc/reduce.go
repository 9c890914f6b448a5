package mc

import "crystalball/internal/sm"

// Dynamic partial-order reduction.
//
// The engine expands every enabled transition of every claimed state, which
// wastes exponentially many ApplyEvent executions on reorderings of
// *commuting* network deliveries: delivering to node a then node b reaches a
// state identical to delivering to b then a, so the second ordering's
// handler executions only rediscover hashes the visited set already holds.
// With Config.Reduce on, the engine runs a sleep-set reduction over those
// commuting deliveries: after a state explores delivery d1, the sibling
// branch entered through an independent delivery d2 carries d1 in its sleep
// set and skips re-executing it — the commuted square closes through the d1
// branch. Sleep entries are inherited down the tree for as long as every
// edge on the way commutes with them, and are dropped the moment an edge
// touches the entry's recipient (or any reset fires, which invalidates
// in-flight messages wholesale).
//
// Soundness: sleep sets prune only transitions whose target state is, by the
// commuting-square argument, hash-identical to a state reached at the same
// BFS level through the sibling branch — so the claimed-state set, the
// per-state property checks, the reported violations and the distinct
// local-state set are all exactly those of the unreduced search (the
// differential oracle in internal/scenario pins this on every registered
// scenario). What changes is the transition count: the engine never executes
// a handler just to rediscover a visited hash it can prove redundant.
//
// The independence relation is conservative and purely dynamic (see
// dependent() below): two transitions interfere iff they run a handler at
// the same node, or they consume the same (from, to) RST queue. A delivery
// (f→r) removes one in-flight item addressed to r, mutates r's local state
// and appends sends originating at r; per-(from,to,type) FIFO delivery
// means appends never change which in-flight instance an event key
// resolves to, so transitions touching disjoint recipients commute exactly
// and can neither enable nor disable one another. Timers and application
// calls participate too — they mutate exactly their own node. Anything
// cross-cutting — node resets, which destroy in-flight messages of many
// pairs and read every node's neighbor set — clears the inherited sleep set
// instead of reasoning about it.
//
// In Consequence mode the reduction composes with the (node, local state)
// internal-action rule, with one restriction: that rule prunes H_A edges
// *globally* (once per claimed local state), so a commuting square whose
// closure replays an H_A edge from the sibling state may find the edge
// pruned there and never close. The engine therefore never lets a sleep
// promise ride on an H_A expansion in Consequence mode: H_A-entered
// children start with empty sleep sets and H_A expansions are not recorded
// as siblings (Engine.expand). H_A transitions may still BE slept —
// closing that square replays only H_M edges, which are never
// state-pruned.
//
// When reduction is NOT sound: the search still visits every state, so any
// property over *states* (the props.Set surface) is preserved; what is not
// preserved is the set of explored interleavings. A checker asserting
// something about message-arrival order itself — e.g. transition-level
// instrumentation counting orderings — must run with Reduce off. The
// README's "Partial-order reduction" section documents this boundary.

// sleepSet is an immutable set of slept transitions carried on a Node, each
// named by its sm.EventKey: the key resolves to the same transition in every
// state an entry survives to (no edge on the way touched its node), so
// skipping by key skips exactly the promised transition. A reset's key never
// enters a set. Sets are tiny (bounded by the enabled network transitions of
// one ancestor chain), so linear scans beat any map.
type sleepSet []sm.EventKey

func (s sleepSet) contains(k sm.EventKey) bool {
	for i := range s {
		if s[i] == k {
			return true
		}
	}
	return false
}

// intersectSleep returns the entries common to a and b, filtering a in
// place (childSleep allocates each child its own slice, so the claimed
// child's set is never shared). When several same-level paths propose one
// state with different sleep sets, only transitions *every* arrival slept
// may stay slept: a promise delegates to a sibling proposal, and that
// proposal is itself a same-level arrival at some matched state whose
// sleep set enters the intersection there — keeping the delegation chain
// grounded. Without this, state matching breaks sleep-set completeness
// (the first arrival's set wins and can sleep a transition a later
// arrival's subtree needed explored); claimPass applies the intersection
// in the claim passes of the parents' bucket, before the child is ever
// expanded.
func intersectSleep(a, b sleepSet) sleepSet {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := a[:0]
	for i := range a {
		if b.contains(a[i]) {
			out = append(out, a[i])
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// dependent reports whether the transitions named by a and b may interfere
// — commute differently, or enable/disable one another. Two axes:
//
//   - Node-state dependence: both run a handler at (or mutate the local
//     state of) the same node. RST drops touch no node state — they only
//     remove an in-flight item — so they are exempt from this axis.
//   - RST-queue dependence: transport-error deliveries and RST drops of
//     the same (from, to) pair consume the same RST queue.
//
// Everything else commutes exactly: distinct nodes' handlers read and
// write disjoint state, per-(from,to,type) FIFO queues are disjoint, and a
// handler appending to a queue commutes with a drop removing that queue's
// head (the head is the same item either way, and the position-aware
// fingerprint makes both orders hash-identical).
func dependent(a, b sm.EventKey) bool {
	if a.Kind != 'D' && b.Kind != 'D' && a.Node == b.Node {
		return true
	}
	aq := a.Kind == 'D' || a.Kind == 'E'
	bq := b.Kind == 'D' || b.Kind == 'E'
	return aq && bq && a.From == b.From && a.Node == b.Node
}

// childSleep builds the sleep set for a child entered through the
// transition named by enter: inherited entries and earlier explored
// siblings survive iff they are independent of the entering transition.
// A nil result means the empty set.
func childSleep(inherited sleepSet, siblings []sm.EventKey, enter sm.EventKey) sleepSet {
	n := 0
	for i := range inherited {
		if !dependent(inherited[i], enter) {
			n++
		}
	}
	for i := range siblings {
		if !dependent(siblings[i], enter) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(sleepSet, 0, n)
	for i := range inherited {
		if !dependent(inherited[i], enter) {
			out = append(out, inherited[i])
		}
	}
	for i := range siblings {
		if !dependent(siblings[i], enter) {
			out = append(out, siblings[i])
		}
	}
	return out
}
