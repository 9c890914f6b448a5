// Package crdt implements op-based replicated data types — a G-Counter, an
// OR-Set and a LWW-Map — as checkable scenarios for the cross-node property
// engine.
//
// Each replica applies operations locally and broadcasts them to every
// other member; a delivered-operation set tracks which ops each replica has
// applied. The safety property is Gomes et al.'s strong eventual
// consistency formulation: two replicas that have delivered the same
// operation multiset must be in equal states, whatever the delivery order.
// Operations carry unique ids (origin, sequence), so the delivered multiset
// is a set and "same multiset" reduces to set equality.
//
// That property is inherently cross-node — no single replica can observe
// divergence — which is exactly what props.GlobalProperty exists for. Each
// scenario ships with a seeded divergence bug (the default variant) that
// the correct merge function repairs under Options.Fixed:
//
//	gcounter  non-commutative merge: incoming entries overwrite instead of
//	          entrywise max, so a stale vector clobbers newer counts
//	orset     remove-wins tombstones: a remove kills every live tag of the
//	          element at delivery time, including concurrent adds it never
//	          observed
//	lwwmap    clock-tie divergence: a put applies on ts >= current with no
//	          origin tie-break, so concurrent same-timestamp puts land in
//	          delivery order
package crdt

import (
	"slices"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// OpID uniquely identifies an operation: the replica that issued it and
// that replica's own-op sequence number. Add-tags in the OR-Set are OpIDs
// too — an add's tag is the id of the add operation itself.
type OpID struct {
	Origin sm.NodeID
	Seq    uint32
}

func opLess(a, b OpID) int {
	if a.Origin != b.Origin {
		return int(a.Origin) - int(b.Origin)
	}
	return int(a.Seq) - int(b.Seq)
}

// Domain tags keep the commutative per-entry hashes of different state
// components from cancelling against each other (same scheme as the
// checker's state fingerprint).
const (
	domDelivered byte = 1
	domCounter   byte = 2
	domSetTag    byte = 3
	domMapEntry  byte = 4
)

func fnvU64(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = sm.FNV64aByte(h, byte(v>>shift))
	}
	return h
}

func opHash(domain byte, id OpID) uint64 {
	h := sm.FNV64aByte(sm.FNV64aInit, domain)
	h = fnvU64(h, uint64(uint32(id.Origin)))
	h = fnvU64(h, uint64(id.Seq))
	return sm.Mix64(h)
}

// kvHash fingerprints one (key, value) payload entry.
func kvHash(domain byte, k, v uint64) uint64 {
	h := sm.FNV64aByte(sm.FNV64aInit, domain)
	h = fnvU64(h, k)
	h = fnvU64(h, v)
	return sm.Mix64(h)
}

// strHash fingerprints one string-keyed payload entry with up to three
// numeric components (explicit arity keeps the per-state hot path free of
// variadic slices).
func strHash(domain byte, s string, a, b, c uint64) uint64 {
	h := sm.FNV64aByte(sm.FNV64aInit, domain)
	h = sm.FNV64aString(h, s)
	h = fnvU64(h, a)
	h = fnvU64(h, b)
	h = fnvU64(h, c)
	return sm.Mix64(h)
}

// Replica is the view the convergence property takes of a CRDT service:
// enough to decide "same delivered ops" and "same state" without knowing
// the payload type.
type Replica interface {
	// DeliveredCount returns the number of delivered operations.
	DeliveredCount() int
	// DeliveredSum returns an order-independent fingerprint of the
	// delivered-operation set.
	DeliveredSum() uint64
	// ConvergedSum returns an order-independent fingerprint of the
	// replica's observable payload state (the counter vector, the live
	// set, the map entries).
	ConvergedSum() uint64
}

// secMaxNodes bounds the stack-allocated scratch of the convergence check;
// a larger view (none of the scenarios comes close) is passed over rather
// than checked, per the defensive half of the GlobalProperty contract.
const secMaxNodes = 32

// PropConverged builds the strong-eventual-consistency property: every
// pair of replicas in the view that have delivered the same operation set
// must have equal payload fingerprints. Nodes that are not crdt replicas
// (or views larger than the scratch bound) are skipped, never failed.
func PropConverged(name string) props.GlobalProperty {
	return props.GlobalProperty{
		Name: name,
		Check: func(v props.GlobalView) bool {
			nodes := v.Nodes()
			if len(nodes) > secMaxNodes {
				return true
			}
			var (
				reps [secMaxNodes]Replica
				dsum [secMaxNodes]uint64
				dcnt [secMaxNodes]int
				csum [secMaxNodes]uint64
			)
			n := 0
			for i := range nodes {
				r, ok := nodes[i].Svc.(Replica)
				if !ok {
					continue
				}
				reps[n] = r
				dsum[n] = r.DeliveredSum()
				dcnt[n] = r.DeliveredCount()
				csum[n] = r.ConvergedSum()
				n++
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if dcnt[i] == dcnt[j] && dsum[i] == dsum[j] && csum[i] != csum[j] {
						return false
					}
				}
			}
			return true
		},
	}
}

// opLog is the delivered-operation set every replica embeds, plus the
// replica's own-op sequence counter.
type opLog struct {
	Seq       uint32
	Delivered map[OpID]bool
}

func newOpLog() opLog {
	return opLog{Delivered: make(map[OpID]bool)}
}

// next allocates the replica's next own operation id and marks it
// delivered (an op counts as delivered at its origin).
func (l *opLog) next(self sm.NodeID) OpID {
	l.Seq++
	id := OpID{Origin: self, Seq: l.Seq}
	l.Delivered[id] = true
	return id
}

// StableBytes implements sm.StableStore for every embedding replica: the
// own-op sequence counter is the replica's durable state. Persisting it
// across resets means a recovered replica never reissues an op id, which
// the convergence property depends on — op content is fixed at issue time
// per unique id, so "same delivered set" implies "same delivered ops". The
// delivered set itself stays volatile: a reset replica simply has a
// smaller delivered set and drops out of pairwise comparisons until it
// catches up.
func (l *opLog) StableBytes() []byte {
	if l.Seq == 0 {
		return nil
	}
	e := sm.NewEncoder()
	e.Uint32(l.Seq)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// RestoreStable implements sm.StableStore.
func (l *opLog) RestoreStable(data []byte) {
	d := sm.NewDecoder(data)
	l.Seq = d.Uint32()
}

// deliver marks id delivered, reporting false for a duplicate.
func (l *opLog) deliver(id OpID) bool {
	if l.Delivered[id] {
		return false
	}
	l.Delivered[id] = true
	return true
}

// DeliveredCount implements half of Replica for every embedding service.
func (l *opLog) DeliveredCount() int { return len(l.Delivered) }

// DeliveredSum implements the delivered-set fingerprint: a commutative sum
// of per-op hashes, so iteration order cannot matter.
func (l *opLog) DeliveredSum() uint64 {
	var s uint64
	for id := range l.Delivered {
		s += opHash(domDelivered, id)
	}
	return s
}

// cloneInto returns a copy of l whose delivered set is dst's, refilled.
func (l *opLog) cloneInto(dst opLog) opLog {
	return opLog{Seq: l.Seq, Delivered: sm.CopyMap(dst.Delivered, l.Delivered)}
}

// sortedOps returns the delivered ops in (origin, seq) order for stable
// encoding.
func (l *opLog) sortedOps() []OpID {
	ids := make([]OpID, 0, len(l.Delivered))
	for id := range l.Delivered {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, opLess)
	return ids
}

func (l *opLog) encode(e *sm.Encoder) {
	e.Uint32(l.Seq)
	ids := l.sortedOps()
	e.Uint32(uint32(len(ids)))
	for _, id := range ids {
		e.NodeID(id.Origin)
		e.Uint32(id.Seq)
	}
}

func (l *opLog) decode(d *sm.Decoder) {
	l.Seq = d.Uint32()
	n := d.Count(8)
	l.Delivered = make(map[OpID]bool, n)
	for i := 0; i < n; i++ {
		id := OpID{Origin: d.NodeID(), Seq: d.Uint32()}
		l.Delivered[id] = true
	}
}

// others returns the broadcast peer set: every member but self.
func others(members []sm.NodeID, self sm.NodeID) []sm.NodeID {
	out := make([]sm.NodeID, 0, len(members)-1)
	for _, m := range members {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

// memberIndex returns self's rank in the sorted member list (-1 when
// absent); the op scripts are keyed on it.
func memberIndex(members []sm.NodeID, self sm.NodeID) int {
	for i, m := range members {
		if m == self {
			return i
		}
	}
	return -1
}

func broadcast(ctx sm.Context, members []sm.NodeID, msg sm.Message) {
	self := ctx.Self()
	for _, m := range members {
		if m != self {
			ctx.Send(m, msg)
		}
	}
}
