package crdt

import (
	"fmt"
	"slices"
	"sort"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// The orset scenario: an observed-remove set. An add creates a unique tag
// (the op id); a remove lists the tags it observed and kills exactly
// those, with a tombstone set so a remove arriving before its add (the
// channels are FIFO per pair, not causally ordered) still wins over it.
// The seeded bug makes removes too eager: delivery kills every live tag
// of the element — including tags from concurrent adds the remover never
// observed — so replicas that interleave a concurrent add and remove
// differently diverge while agreeing on the delivered ops.
//
// The checker's op script: the first member adds the element twice, the
// second removes it once (after observing it), the rest are passive. The
// quota counter is the op-log Seq itself — each member issues only one
// kind of op — so persisting Seq (see opLog.StableBytes) also pins the
// script across resets.

// setElem is the single element the op script works on.
const setElem = "x"

// AppAdd asks the replica to add Elem with a fresh tag.
type AppAdd struct {
	Elem string
}

// CallName implements sm.AppCall.
func (AppAdd) CallName() string { return "Add" }

// EncodeCall implements sm.AppCall.
func (a AppAdd) EncodeCall(e *sm.Encoder) { e.String(a.Elem) }

// AppRemove asks the replica to remove every tag of Elem it can observe.
type AppRemove struct {
	Elem string
}

// CallName implements sm.AppCall.
func (AppRemove) CallName() string { return "Remove" }

// EncodeCall implements sm.AppCall.
func (a AppRemove) EncodeCall(e *sm.Encoder) { e.String(a.Elem) }

// OpAdd carries one add operation; the op id doubles as the element tag.
type OpAdd struct {
	Elem string
	ID   OpID
}

// MsgType implements sm.Message.
func (OpAdd) MsgType() string { return "OpAdd" }

// Size implements sm.Message.
func (m OpAdd) Size() int { return 8 + len(m.Elem) }

// EncodeMsg implements sm.Message.
func (m OpAdd) EncodeMsg(e *sm.Encoder) {
	e.String(m.Elem)
	e.NodeID(m.ID.Origin)
	e.Uint32(m.ID.Seq)
}

// OpRemove carries one remove operation: the op id and the observed tags
// it removes. Tags is sorted at creation and immutable once sent.
type OpRemove struct {
	Elem string
	ID   OpID
	Tags []OpID
}

// MsgType implements sm.Message.
func (OpRemove) MsgType() string { return "OpRemove" }

// Size implements sm.Message.
func (m OpRemove) Size() int { return 8 + len(m.Elem) + 8*len(m.Tags) }

// EncodeMsg implements sm.Message.
func (m OpRemove) EncodeMsg(e *sm.Encoder) {
	e.String(m.Elem)
	e.NodeID(m.ID.Origin)
	e.Uint32(m.ID.Seq)
	e.Uint32(uint32(len(m.Tags)))
	for _, t := range m.Tags {
		e.NodeID(t.Origin)
		e.Uint32(t.Seq)
	}
}

// Set is one OR-Set replica.
type Set struct {
	opLog
	Self    sm.NodeID
	Members []sm.NodeID
	Fixed   bool
	// Live maps element -> live add-tags; an element is in the set when
	// it has at least one live tag.
	Live map[string]map[OpID]bool
	// Tombs holds tags killed by a delivered remove, so a late add of a
	// tombstoned tag stays dead.
	Tombs map[OpID]bool
}

// NewSet returns the factory for an OR-Set membership; fixed selects the
// correct observed-remove semantics over the seeded remove-wins bug.
func NewSet(members []sm.NodeID, fixed bool) sm.Factory {
	return func(self sm.NodeID) sm.Service {
		return &Set{
			opLog:   newOpLog(),
			Self:    self,
			Members: sm.CloneNodeSlice(members),
			Fixed:   fixed,
			Live:    make(map[string]map[OpID]bool),
			Tombs:   make(map[OpID]bool),
		}
	}
}

func (s *Set) liveTags(elem string) []OpID {
	tags := make([]OpID, 0, len(s.Live[elem]))
	for t := range s.Live[elem] {
		tags = append(tags, t)
	}
	slices.SortFunc(tags, opLess)
	return tags
}

func (s *Set) addTag(elem string, tag OpID) {
	if s.Tombs[tag] {
		return
	}
	m := s.Live[elem]
	if m == nil {
		m = make(map[OpID]bool)
		s.Live[elem] = m
	}
	m[tag] = true
}

func (s *Set) killTag(elem string, tag OpID) {
	s.Tombs[tag] = true
	if m := s.Live[elem]; m != nil {
		delete(m, tag)
		if len(m) == 0 {
			delete(s.Live, elem)
		}
	}
}

// Init implements sm.Service.
func (s *Set) Init(ctx sm.Context) {}

// HandleApp implements sm.Service.
func (s *Set) HandleApp(ctx sm.Context, call sm.AppCall) {
	switch c := call.(type) {
	case AppAdd:
		if memberIndex(s.Members, s.Self) != 0 || s.Seq >= 2 {
			return
		}
		id := s.next(s.Self)
		s.addTag(c.Elem, id)
		broadcast(ctx, s.Members, OpAdd{Elem: c.Elem, ID: id})
	case AppRemove:
		if memberIndex(s.Members, s.Self) != 1 || s.Seq >= 1 || len(s.Live[c.Elem]) == 0 {
			return
		}
		observed := s.liveTags(c.Elem)
		id := s.next(s.Self)
		for _, t := range observed {
			s.killTag(c.Elem, t)
		}
		broadcast(ctx, s.Members, OpRemove{Elem: c.Elem, ID: id, Tags: observed})
	}
}

// HandleMessage implements sm.Service.
func (s *Set) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	switch m := msg.(type) {
	case OpAdd:
		if !s.deliver(m.ID) {
			return
		}
		s.addTag(m.Elem, m.ID)
	case OpRemove:
		if !s.deliver(m.ID) {
			return
		}
		if !s.Fixed {
			// Seeded bug: remove wins over everything live at delivery
			// time, killing concurrent adds the remover never observed
			// — the kill set now depends on delivery order.
			for _, t := range s.liveTags(m.Elem) {
				s.killTag(m.Elem, t)
			}
		}
		// Correct observed-remove: kill exactly the tags the remover
		// listed (tombstoned, so a late add of one stays dead).
		for _, t := range m.Tags {
			s.killTag(m.Elem, t)
		}
	}
}

// HandleTimer implements sm.Service.
func (s *Set) HandleTimer(ctx sm.Context, t sm.TimerID) {}

// HandleTransportError implements sm.Service.
func (s *Set) HandleTransportError(ctx sm.Context, peer sm.NodeID) {}

// ModelAppCalls implements sm.ModelActions.
func (s *Set) ModelAppCalls() []sm.AppCall {
	switch memberIndex(s.Members, s.Self) {
	case 0:
		if s.Seq < 2 {
			return []sm.AppCall{AppAdd{Elem: setElem}}
		}
	case 1:
		if s.Seq < 1 && len(s.Live[setElem]) > 0 {
			return []sm.AppCall{AppRemove{Elem: setElem}}
		}
	}
	return nil
}

// Neighbors implements sm.Service.
func (s *Set) Neighbors() []sm.NodeID { return others(s.Members, s.Self) }

// Clone implements sm.Service.
func (s *Set) Clone() sm.Service { return s.CloneInto(nil) }

// CloneInto implements sm.Service: dst's struct, delivered set, member list,
// tombstones and live map are reused; an element's tag set survives only
// under the same element.
func (s *Set) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Set)
	if !ok {
		out = new(Set)
	}
	log, members, live, tombs := out.opLog, out.Members, out.Live, out.Tombs
	*out = *s
	out.opLog = s.opLog.cloneInto(log)
	out.Members = append(members[:0], s.Members...)
	out.Tombs = sm.CopyMap(tombs, s.Tombs)
	if live == nil {
		live = make(map[string]map[OpID]bool, len(s.Live))
	}
	for elem := range live {
		if _, keep := s.Live[elem]; !keep {
			delete(live, elem)
		}
	}
	for elem, tags := range s.Live {
		live[elem] = sm.CopyMap(live[elem], tags)
	}
	out.Live = live
	return out
}

func (s *Set) sortedElems() []string {
	elems := make([]string, 0, len(s.Live))
	for e := range s.Live {
		elems = append(elems, e)
	}
	sort.Strings(elems)
	return elems
}

// EncodeState implements sm.Service.
//
//crystal:hotpath
func (s *Set) EncodeState(e *sm.Encoder) {
	e.NodeID(s.Self)
	e.Bool(s.Fixed)
	e.NodeSlice(s.Members)
	s.opLog.encode(e)
	elems := s.sortedElems()
	e.Uint32(uint32(len(elems)))
	for _, elem := range elems {
		e.String(elem)
		tags := s.liveTags(elem)
		e.Uint32(uint32(len(tags)))
		for _, t := range tags {
			e.NodeID(t.Origin)
			e.Uint32(t.Seq)
		}
	}
	tombs := make([]OpID, 0, len(s.Tombs))
	for t := range s.Tombs {
		tombs = append(tombs, t)
	}
	slices.SortFunc(tombs, opLess)
	e.Uint32(uint32(len(tombs)))
	for _, t := range tombs {
		e.NodeID(t.Origin)
		e.Uint32(t.Seq)
	}
}

// DecodeState implements sm.Service.
func (s *Set) DecodeState(d *sm.Decoder) error {
	s.Self = d.NodeID()
	s.Fixed = d.Bool()
	s.Members = d.NodeSlice()
	s.opLog.decode(d)
	nElems := d.Count(8)
	s.Live = make(map[string]map[OpID]bool, nElems)
	for i := 0; i < nElems; i++ {
		elem := d.String()
		nTags := d.Count(8)
		m := make(map[OpID]bool, nTags)
		for j := 0; j < nTags; j++ {
			m[OpID{Origin: d.NodeID(), Seq: d.Uint32()}] = true
		}
		s.Live[elem] = m
	}
	nTombs := d.Count(8)
	s.Tombs = make(map[OpID]bool, nTombs)
	for i := 0; i < nTombs; i++ {
		s.Tombs[OpID{Origin: d.NodeID(), Seq: d.Uint32()}] = true
	}
	return d.Err()
}

// ConvergedSum implements Replica: a commutative fingerprint of the live
// (element, tag) pairs — the observable set value at tag granularity.
func (s *Set) ConvergedSum() uint64 {
	var sum uint64
	for elem, tags := range s.Live {
		for t := range tags {
			sum += strHash(domSetTag, elem, uint64(uint32(t.Origin)), uint64(t.Seq), 0)
		}
	}
	return sum
}

func init() {
	scenario.Register(scenario.Scenario{
		Name:        "orset",
		Description: "observed-remove set replicas (seeded remove-wins bug)",
		New: func(ids []sm.NodeID, o scenario.Options) (sm.Factory, error) {
			if o.Variant != "" {
				return nil, fmt.Errorf("unknown variant %q", o.Variant)
			}
			return NewSet(ids, o.Fixed), nil
		},
		GlobalProps: props.GlobalSet{PropConverged("ReplicaConvergence")},
		Check:       scenario.Tuning{Nodes: 3},
		Live:        scenario.Tuning{Nodes: 5},
		RoundBudget: mc.Budget{States: 8000},
		Join:        func() sm.AppCall { return AppAdd{Elem: setElem} },
	})
}
