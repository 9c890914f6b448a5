package mc

import (
	"slices"

	"crystalball/internal/sm"
)

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

// Representation. A sleep set is a run of uint32 indices into the engine
// tree's interned key table, kept in the sleep storage of the frontier bucket
// that holds the claimed, not yet expanded state, and named by that state's
// held entry alone (an offset and a length). An entry names a transition by
// its sm.EventKey: the key resolves to the same transition in every state an
// entry survives to (no edge on the way touched its node), so skipping by key
// skips exactly the promised transition. A reset's key never enters a set.
// Sets are tiny (bounded by the enabled network transitions of one ancestor
// chain), so linear scans beat any map, and four bytes an entry instead of
// the key's forty is what a level of a million held states pays.
//
// Keys are interned only in the serial claim pass, so a set is built there
// too, from what the worker left behind: the parent's own set, the keys of
// the siblings the parent explored before the child (Expander.sibs — keys,
// since a sibling may not have an index yet) and the child's entering
// transition. A worker only reads: slept tests an enumerated key against the
// expanding state's set — resolved to its keys once per expansion — before
// the transition is executed.

// slept reports whether the key k is in sleep, a set resolved to its keys
// (Engine.expand looks a state's set up once, not once per enumerated key).
//
//crystal:hotpath
func slept(sleep []*sm.EventKey, k *sm.EventKey) bool {
	for _, s := range sleep {
		if *s == *k {
			return true
		}
	}
	return false
}

// promise is a proposed child's sleep set before it is built: the parent's
// set, the explored siblings that preceded the child, and the transition
// that enters it. An inherited entry or a sibling survives into the child's
// set iff it is independent of the entering transition.
type promise struct {
	inherited []uint32
	siblings  []sm.EventKey
	enter     sm.EventKey
}

// childSleep writes the promised set into dst, the sleep storage of the
// bucket the child is queued in, as one run, and returns the run's offset and
// length (a length of 0 is the empty set, which takes no storage); ids[j],
// when non-zero, caches the interned index of siblings[j] across the children
// of one parent.
func (t *Tree) childSleep(p promise, ids []uint32, dst *slab[uint32]) (at, n uint32) {
	for _, id := range p.inherited {
		if !dependent(t.keys.at(int(id)), &p.enter) {
			n++
		}
	}
	for j := range p.siblings {
		if !dependent(&p.siblings[j], &p.enter) {
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	i := dst.reserve(int(n))
	out := dst.run(i, int(n))[:0]
	for _, id := range p.inherited {
		if !dependent(t.keys.at(int(id)), &p.enter) {
			out = append(out, id)
		}
	}
	for j := range p.siblings {
		if !dependent(&p.siblings[j], &p.enter) {
			if ids[j] == 0 {
				ids[j] = t.intern(p.siblings[j])
			}
			out = append(out, ids[j])
		}
	}
	return uint32(i), n
}

// intersectSleep returns the entries of sleep that the promised set p also
// holds, filtering sleep in place (childSleep gives each child its own run,
// so the claimed child's set is never shared) and without building p's set.
// When several same-level paths propose one state with different sleep
// sets, only transitions *every* arrival slept may stay slept: a
// promise delegates to a sibling proposal, and that proposal is itself a
// same-level arrival at some matched state whose sleep set enters the
// intersection there — keeping the delegation chain grounded. Without this,
// state matching breaks sleep-set completeness (the first arrival's set wins
// and can sleep a transition a later arrival's subtree needed explored);
// claimPass applies the intersection in the claim passes of the parents'
// bucket, before the child is ever expanded.
func (t *Tree) intersectSleep(sleep []uint32, p promise) []uint32 {
	out := sleep[:0]
	for _, id := range sleep {
		k := t.keys.at(int(id))
		if !dependent(k, &p.enter) && (slices.Contains(p.inherited, id) || slices.Contains(p.siblings, *k)) {
			out = append(out, id)
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
func dependent(a, b *sm.EventKey) bool {
	if a.Kind != 'D' && b.Kind != 'D' && a.Node == b.Node {
		return true
	}
	aq := a.Kind == 'D' || a.Kind == 'E'
	bq := b.Kind == 'D' || b.Kind == 'E'
	return aq && bq && a.From == b.From && a.Node == b.Node
}
