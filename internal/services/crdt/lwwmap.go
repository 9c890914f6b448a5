package crdt

import (
	"fmt"
	"sort"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// The lwwmap scenario: a last-writer-wins map with Lamport timestamps. The
// correct merge applies a put iff its (timestamp, origin) pair is
// lexicographically greater than the current entry's — a strict total
// order, so every replica picks the same winner whatever the delivery
// order. The seeded bug compares timestamps alone with >=: concurrent puts
// that tie on the clock land in delivery order, and replicas that received
// them in different orders keep different values for the key forever.
//
// The checker's op script: the first member puts twice (timestamps 1 and
// 2); the second member puts once, only after it has delivered a foreign
// op — its Lamport clock is then 1, so its put carries timestamp 2 and
// ties the first member's second put. Exhaustive search finds the
// divergence a few events from the initial state; consequence prediction
// needs the staged TieStart fixture (see its comment for why — the same
// initial-state blindness the paper reports for the deep Paxos bugs).

// mapKey is the single key the op script writes.
const mapKey = "k"

// AppPut asks the replica to write its node id under Key.
type AppPut struct {
	Key string
}

// CallName implements sm.AppCall.
func (AppPut) CallName() string { return "Put" }

// EncodeCall implements sm.AppCall.
func (a AppPut) EncodeCall(e *sm.Encoder) { e.String(a.Key) }

// OpPut carries one put operation. Immutable once sent.
type OpPut struct {
	ID  OpID
	Key string
	Val int64
	TS  uint64
}

// MsgType implements sm.Message.
func (OpPut) MsgType() string { return "OpPut" }

// Size implements sm.Message.
func (m OpPut) Size() int { return 24 + len(m.Key) }

// EncodeMsg implements sm.Message.
func (m OpPut) EncodeMsg(e *sm.Encoder) {
	e.NodeID(m.ID.Origin)
	e.Uint32(m.ID.Seq)
	e.String(m.Key)
	e.Int64(m.Val)
	e.Uint64(m.TS)
}

// entry is one key's current value with its write stamp.
type entry struct {
	Val    int64
	TS     uint64
	Origin sm.NodeID
}

// Map is one LWW-Map replica.
type Map struct {
	opLog
	Self    sm.NodeID
	Members []sm.NodeID
	Fixed   bool
	Clock   uint64
	Entries map[string]entry
}

// NewMap returns the factory for a LWW-Map membership; fixed selects the
// correct (timestamp, origin) tie-break over the seeded ts-only >= rule.
func NewMap(members []sm.NodeID, fixed bool) sm.Factory {
	return func(self sm.NodeID) sm.Service {
		return &Map{
			opLog:   newOpLog(),
			Self:    self,
			Members: sm.CloneNodeSlice(members),
			Fixed:   fixed,
			Entries: make(map[string]entry),
		}
	}
}

// wins reports whether an incoming write (ts, origin) replaces e.
func (m *Map) wins(e entry, ok bool, ts uint64, origin sm.NodeID) bool {
	if !ok {
		return true
	}
	if m.Fixed {
		// Correct merge: lexicographic (timestamp, origin) — a strict
		// total order over writes, so the winner is delivery-order
		// independent.
		return ts > e.TS || (ts == e.TS && origin > e.Origin)
	}
	// Seeded bug: clock ties have no tie-break and >= lets the latest
	// delivery win them.
	return ts >= e.TS
}

func (m *Map) apply(key string, val int64, ts uint64, origin sm.NodeID) {
	if e, ok := m.Entries[key]; !m.wins(e, ok, ts, origin) {
		return
	}
	m.Entries[key] = entry{Val: val, TS: ts, Origin: origin}
}

// Init implements sm.Service.
func (m *Map) Init(ctx sm.Context) {}

// putAllowed is the checker op script: member 0 may put twice, member 1
// once after delivering at least one foreign op, everyone else is passive.
func (m *Map) putAllowed() bool {
	switch memberIndex(m.Members, m.Self) {
	case 0:
		return m.Seq < 2
	case 1:
		return m.Seq < 1 && len(m.Delivered) > int(m.Seq)
	}
	return false
}

// HandleApp implements sm.Service.
func (m *Map) HandleApp(ctx sm.Context, call sm.AppCall) {
	c, ok := call.(AppPut)
	if !ok || !m.putAllowed() {
		return
	}
	m.Clock++
	ts := m.Clock
	id := m.next(m.Self)
	val := int64(m.Self)
	m.apply(c.Key, val, ts, m.Self)
	broadcast(ctx, m.Members, OpPut{ID: id, Key: c.Key, Val: val, TS: ts})
}

// HandleMessage implements sm.Service.
func (m *Map) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	op, ok := msg.(OpPut)
	if !ok || !m.deliver(op.ID) {
		return
	}
	if op.TS > m.Clock {
		m.Clock = op.TS
	}
	m.apply(op.Key, op.Val, op.TS, op.ID.Origin)
}

// HandleTimer implements sm.Service.
func (m *Map) HandleTimer(ctx sm.Context, t sm.TimerID) {}

// HandleTransportError implements sm.Service.
func (m *Map) HandleTransportError(ctx sm.Context, peer sm.NodeID) {}

// ModelAppCalls implements sm.ModelActions.
func (m *Map) ModelAppCalls() []sm.AppCall {
	if m.putAllowed() {
		return []sm.AppCall{AppPut{Key: mapKey}}
	}
	return nil
}

// Neighbors implements sm.Service.
func (m *Map) Neighbors() []sm.NodeID { return others(m.Members, m.Self) }

// Clone implements sm.Service.
func (m *Map) Clone() sm.Service { return m.CloneInto(nil) }

// CloneInto implements sm.Service: dst's struct, delivered set, member list
// and entries are reused.
func (m *Map) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Map)
	if !ok {
		out = new(Map)
	}
	log, members, entries := out.opLog, out.Members, out.Entries
	*out = *m
	out.opLog = m.opLog.cloneInto(log)
	out.Members = append(members[:0], m.Members...)
	out.Entries = sm.CopyMap(entries, m.Entries)
	return out
}

func (m *Map) sortedKeys() []string {
	keys := make([]string, 0, len(m.Entries))
	for k := range m.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EncodeState implements sm.Service.
//
//crystal:hotpath
func (m *Map) EncodeState(e *sm.Encoder) {
	e.NodeID(m.Self)
	e.Bool(m.Fixed)
	e.NodeSlice(m.Members)
	m.opLog.encode(e)
	e.Uint64(m.Clock)
	keys := m.sortedKeys()
	e.Uint32(uint32(len(keys)))
	for _, k := range keys {
		ent := m.Entries[k]
		e.String(k)
		e.Int64(ent.Val)
		e.Uint64(ent.TS)
		e.NodeID(ent.Origin)
	}
}

// DecodeState implements sm.Service.
func (m *Map) DecodeState(d *sm.Decoder) error {
	m.Self = d.NodeID()
	m.Fixed = d.Bool()
	m.Members = d.NodeSlice()
	m.opLog.decode(d)
	m.Clock = d.Uint64()
	n := d.Count(24)
	m.Entries = make(map[string]entry, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m.Entries[k] = entry{Val: d.Int64(), TS: d.Uint64(), Origin: d.NodeID()}
	}
	return d.Err()
}

// ConvergedSum implements Replica: a commutative fingerprint of the map
// entries including their write stamps.
func (m *Map) ConvergedSum() uint64 {
	var s uint64
	for k, e := range m.Entries {
		s += strHash(domMapEntry, k, uint64(e.Val), e.TS, uint64(uint32(e.Origin)))
	}
	return s
}

// TieStart builds the staged start state for consequence-prediction
// checking, the lwwmap analogue of the paxos Figure 13 fixture. Member 0
// (node 1) has already put twice (timestamps 1 and 2); member 1 (node 2)
// has delivered the first put and issued its own, so its put also carries
// timestamp 2; the cross deliveries are still in flight. Two events from
// here both replicas have delivered the full op set with the two
// timestamp-2 puts arriving in opposite orders — the seeded >= merge
// keeps whichever arrived last and the replicas diverge, while the fixed
// (timestamp, origin) order picks the same winner on both. Consequence
// prediction from the fresh initial state never reaches this divergence:
// its (node, local-state) claims prune the combined interleavings of the
// independent first puts (the paper's section 5.3 observation), and any
// surviving chain bumps the Lamport clock past the tie. From the staged
// state the violation is two deliveries deep, checked before pruning can
// bite.
func TieStart(factory sm.Factory) *mc.GState {
	a := factory(1).(*Map)
	a.Seq = 2
	a.Delivered = map[OpID]bool{
		{Origin: 1, Seq: 1}: true,
		{Origin: 1, Seq: 2}: true,
	}
	a.Clock = 2
	a.Entries[mapKey] = entry{Val: 1, TS: 2, Origin: 1}

	b := factory(2).(*Map)
	b.Seq = 1
	b.Delivered = map[OpID]bool{
		{Origin: 1, Seq: 1}: true,
		{Origin: 2, Seq: 1}: true,
	}
	b.Clock = 2
	b.Entries[mapKey] = entry{Val: 2, TS: 2, Origin: 2}

	g := mc.NewGState()
	g.AddNode(1, a, nil)
	g.AddNode(2, b, nil)
	g.AddNode(3, factory(3).(*Map), nil)
	g.AddMessage(1, 2, OpPut{ID: OpID{Origin: 1, Seq: 2}, Key: mapKey, Val: 1, TS: 2})
	g.AddMessage(2, 1, OpPut{ID: OpID{Origin: 2, Seq: 1}, Key: mapKey, Val: 2, TS: 2})
	g.AddMessage(1, 3, OpPut{ID: OpID{Origin: 1, Seq: 1}, Key: mapKey, Val: 1, TS: 1})
	g.AddMessage(1, 3, OpPut{ID: OpID{Origin: 1, Seq: 2}, Key: mapKey, Val: 1, TS: 2})
	g.AddMessage(2, 3, OpPut{ID: OpID{Origin: 2, Seq: 1}, Key: mapKey, Val: 2, TS: 2})
	return g
}

func init() {
	scenario.Register(scenario.Scenario{
		Name:        "lwwmap",
		Description: "last-writer-wins map replicas (seeded clock-tie divergence)",
		New: func(ids []sm.NodeID, o scenario.Options) (sm.Factory, error) {
			if o.Variant != "" {
				return nil, fmt.Errorf("unknown variant %q", o.Variant)
			}
			return NewMap(ids, o.Fixed), nil
		},
		GlobalProps: props.GlobalSet{PropConverged("ReplicaConvergence")},
		Check:       scenario.Tuning{Nodes: 3},
		Live:        scenario.Tuning{Nodes: 5},
		RoundBudget: mc.Budget{States: 8000},
		Join:        func() sm.AppCall { return AppPut{Key: mapKey} },
	})
}
