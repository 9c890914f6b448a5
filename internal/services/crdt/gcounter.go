package crdt

import (
	"fmt"
	"slices"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// The gcounter scenario: a grow-only counter replicated by broadcasting,
// with each increment, the origin's full count vector. The correct merge
// is entrywise max — commutative, so any delivery order converges. The
// seeded bug overwrites entries with the incoming vector's values, so a
// stale vector arriving late clobbers newer counts and two replicas with
// identical delivered ops end up with different totals.
//
// The checker's op script: the first member increments twice, the second
// once, the rest are passive — the smallest workload whose interleavings
// reach the Figure-style divergence (first member's counts clobbered by
// the second member's relayed stale vector).

// AppInc asks the replica to increment its own counter entry.
type AppInc struct{}

// CallName implements sm.AppCall.
func (AppInc) CallName() string { return "Inc" }

// EncodeCall implements sm.AppCall.
func (AppInc) EncodeCall(e *sm.Encoder) {}

// Sync carries one increment operation: the op id plus a snapshot of the
// origin's count vector at issue time. Immutable once sent.
type Sync struct {
	ID     OpID
	Counts map[sm.NodeID]int64
}

// MsgType implements sm.Message.
func (Sync) MsgType() string { return "Sync" }

// Size implements sm.Message.
func (m Sync) Size() int { return 8 + 12*len(m.Counts) }

// EncodeMsg implements sm.Message.
func (m Sync) EncodeMsg(e *sm.Encoder) {
	e.NodeID(m.ID.Origin)
	e.Uint32(m.ID.Seq)
	encodeCounts(e, m.Counts)
}

func sortedCountKeys(m map[sm.NodeID]int64) []sm.NodeID {
	ids := make([]sm.NodeID, 0, len(m))
	for n := range m {
		ids = append(ids, n)
	}
	slices.Sort(ids)
	return ids
}

func encodeCounts(e *sm.Encoder, m map[sm.NodeID]int64) {
	ids := sortedCountKeys(m)
	e.Uint32(uint32(len(ids)))
	for _, n := range ids {
		e.NodeID(n)
		e.Int64(m[n])
	}
}

func decodeCounts(d *sm.Decoder) map[sm.NodeID]int64 {
	n := d.Count(12)
	out := make(map[sm.NodeID]int64, n)
	for i := 0; i < n; i++ {
		id := d.NodeID()
		out[id] = d.Int64()
	}
	return out
}

// Counter is one G-Counter replica.
type Counter struct {
	opLog
	Self    sm.NodeID
	Members []sm.NodeID
	Fixed   bool
	Counts  map[sm.NodeID]int64
}

// NewCounter returns the factory for a G-Counter membership; fixed selects
// the correct entrywise-max merge over the seeded overwrite merge.
func NewCounter(members []sm.NodeID, fixed bool) sm.Factory {
	return func(self sm.NodeID) sm.Service {
		return &Counter{
			opLog:   newOpLog(),
			Self:    self,
			Members: sm.CloneNodeSlice(members),
			Fixed:   fixed,
			Counts:  make(map[sm.NodeID]int64),
		}
	}
}

// incQuota is the checker op script: member 0 increments twice, member 1
// once, everyone else is passive.
func (c *Counter) incQuota() uint32 {
	switch memberIndex(c.Members, c.Self) {
	case 0:
		return 2
	case 1:
		return 1
	}
	return 0
}

// Init implements sm.Service.
func (c *Counter) Init(ctx sm.Context) {}

// HandleApp implements sm.Service.
func (c *Counter) HandleApp(ctx sm.Context, call sm.AppCall) {
	if call.CallName() != "Inc" || c.Seq >= c.incQuota() {
		return
	}
	id := c.next(c.Self)
	c.Counts[c.Self]++
	snap := make(map[sm.NodeID]int64, len(c.Counts))
	for n, v := range c.Counts {
		snap[n] = v
	}
	broadcast(ctx, c.Members, Sync{ID: id, Counts: snap})
}

// HandleMessage implements sm.Service.
func (c *Counter) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	m, ok := msg.(Sync)
	if !ok || !c.deliver(m.ID) {
		return
	}
	for _, n := range sortedCountKeys(m.Counts) {
		v := m.Counts[n]
		if c.Fixed {
			// Correct merge: entrywise max, commutative.
			if v > c.Counts[n] {
				c.Counts[n] = v
			}
		} else {
			// Seeded bug: the incoming vector overwrites — a stale
			// entry regresses newer counts, and the final state
			// depends on delivery order.
			c.Counts[n] = v
		}
	}
}

// HandleTimer implements sm.Service.
func (c *Counter) HandleTimer(ctx sm.Context, t sm.TimerID) {}

// HandleTransportError implements sm.Service.
func (c *Counter) HandleTransportError(ctx sm.Context, peer sm.NodeID) {}

// ModelAppCalls implements sm.ModelActions.
func (c *Counter) ModelAppCalls() []sm.AppCall {
	if c.Seq < c.incQuota() {
		return []sm.AppCall{AppInc{}}
	}
	return nil
}

// Neighbors implements sm.Service: convergence is a property over every
// replica, so the snapshot neighborhood is the full membership.
func (c *Counter) Neighbors() []sm.NodeID { return others(c.Members, c.Self) }

// Clone implements sm.Service.
func (c *Counter) Clone() sm.Service { return c.CloneInto(nil) }

// CloneInto implements sm.Service: dst's struct, delivered set, member list
// and count vector are reused.
func (c *Counter) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Counter)
	if !ok {
		out = new(Counter)
	}
	log, members, counts := out.opLog, out.Members, out.Counts
	*out = *c
	out.opLog = c.opLog.cloneInto(log)
	out.Members = append(members[:0], c.Members...)
	out.Counts = sm.CopyMap(counts, c.Counts)
	return out
}

// EncodeState implements sm.Service.
//
//crystal:hotpath
func (c *Counter) EncodeState(e *sm.Encoder) {
	e.NodeID(c.Self)
	e.Bool(c.Fixed)
	e.NodeSlice(c.Members)
	c.opLog.encode(e)
	encodeCounts(e, c.Counts)
}

// DecodeState implements sm.Service.
func (c *Counter) DecodeState(d *sm.Decoder) error {
	c.Self = d.NodeID()
	c.Fixed = d.Bool()
	c.Members = d.NodeSlice()
	c.opLog.decode(d)
	c.Counts = decodeCounts(d)
	return d.Err()
}

// ConvergedSum implements Replica: a commutative fingerprint of the count
// vector.
func (c *Counter) ConvergedSum() uint64 {
	var s uint64
	for n, v := range c.Counts {
		s += kvHash(domCounter, uint64(uint32(n)), uint64(v))
	}
	return s
}

func init() {
	scenario.Register(scenario.Scenario{
		Name:        "gcounter",
		Description: "op-based G-Counter replicas (seeded non-commutative merge)",
		New: func(ids []sm.NodeID, o scenario.Options) (sm.Factory, error) {
			if o.Variant != "" {
				return nil, fmt.Errorf("unknown variant %q", o.Variant)
			}
			return NewCounter(ids, o.Fixed), nil
		},
		GlobalProps: props.GlobalSet{PropConverged("ReplicaConvergence")},
		Check:       scenario.Tuning{Nodes: 3},
		Live:        scenario.Tuning{Nodes: 5},
		RoundBudget: mc.Budget{States: 8000},
		Join:        func() sm.AppCall { return AppInc{} },
	})
}
