package props

import (
	"reflect"
	"testing"

	"crystalball/internal/sm"
)

// fakeSvc is a minimal sm.Service for view tests.
type fakeSvc struct {
	self sm.NodeID
	val  int
}

func (f *fakeSvc) Init(sm.Context)                                 {}
func (f *fakeSvc) HandleMessage(sm.Context, sm.NodeID, sm.Message) {}
func (f *fakeSvc) HandleTimer(sm.Context, sm.TimerID)              {}
func (f *fakeSvc) HandleApp(sm.Context, sm.AppCall)                {}
func (f *fakeSvc) HandleTransportError(sm.Context, sm.NodeID)      {}
func (f *fakeSvc) Neighbors() []sm.NodeID                          { return nil }
func (f *fakeSvc) Clone() sm.Service                               { return f.CloneInto(nil) }
func (f *fakeSvc) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*fakeSvc)
	if !ok {
		out = new(fakeSvc)
	}
	*out = *f
	return out
}
func (f *fakeSvc) EncodeState(e *sm.Encoder) { e.NodeID(f.self); e.Int(f.val) }
func (f *fakeSvc) DecodeState(d *sm.Decoder) error {
	f.self = d.NodeID()
	f.val = d.Int()
	return d.Err()
}

func TestViewBasics(t *testing.T) {
	v := NewView()
	if v.Get(1) != nil {
		t.Fatal("empty view has node")
	}
	v.Add(2, &fakeSvc{self: 2}, sm.TimerSet{"t"})
	v.Add(1, &fakeSvc{self: 1}, nil)
	if v.Get(1) == nil || v.Get(2) == nil {
		t.Fatal("nodes missing")
	}
	if got := v.IDs(); !reflect.DeepEqual(got, []sm.NodeID{1, 2}) {
		t.Fatalf("IDs = %v, want sorted [1 2]", got)
	}
	if !v.Get(2).TimerPending("t") {
		t.Fatal("timer lost")
	}
	if v.Get(1).TimerPending("t") {
		t.Fatal("nil timer map should report no pending timers")
	}
	if v.Get(9) != nil {
		t.Fatal("missing node should be nil")
	}
}

func TestSetCheckAndHolds(t *testing.T) {
	sum := func(v *View) int {
		total := 0
		for _, id := range v.IDs() {
			total += v.Get(id).Svc.(*fakeSvc).val
		}
		return total
	}
	set := Set{
		{Name: "SumBelow10", Check: func(v *View) bool { return sum(v) < 10 }},
		{Name: "SumBelow5", Check: func(v *View) bool { return sum(v) < 5 }},
	}
	v := NewView()
	v.Add(1, &fakeSvc{self: 1, val: 3}, nil)
	v.Add(2, &fakeSvc{self: 2, val: 4}, nil)
	violated := set.Check(v)
	if !reflect.DeepEqual(violated, []string{"SumBelow5"}) {
		t.Fatalf("violated = %v", violated)
	}
	if set.Holds(v) {
		t.Fatal("Holds should be false")
	}
	v2 := NewView()
	v2.Add(1, &fakeSvc{self: 1, val: 1}, nil)
	if got := set.Check(v2); got != nil {
		t.Fatalf("violated = %v, want none", got)
	}
	if !set.Holds(v2) {
		t.Fatal("Holds should be true")
	}
}

func TestPartialViewConvention(t *testing.T) {
	// Properties must treat missing nodes as "cannot evaluate" and
	// return true; verify the convention works end to end with a
	// property written that way.
	p := Property{
		Name: "PairAgree",
		Check: func(v *View) bool {
			a, b := v.Get(1), v.Get(2)
			if a == nil || b == nil {
				return true // partial information: no false positive
			}
			return a.Svc.(*fakeSvc).val == b.Svc.(*fakeSvc).val
		},
	}
	v := NewView()
	v.Add(1, &fakeSvc{self: 1, val: 7}, nil)
	if !p.Check(v) {
		t.Fatal("partial view should not violate")
	}
	v.Add(2, &fakeSvc{self: 2, val: 8}, nil)
	if p.Check(v) {
		t.Fatal("full view should violate")
	}
}

// TestViewAddAnyOrder: the controller fills its view from a Go map, so ids
// arrive in any order; GState.FillView adds them ascending, Add's append
// path. Whatever the order, IDs() is ascending, Nodes() is aligned with it,
// Get returns the entry filed under that id, a second Add of an id — the
// last one included — replaces the first, absent ids are nil, and a Reset
// view refills the same way.
func TestViewAddAnyOrder(t *testing.T) {
	ids := []sm.NodeID{9, 2, 14, 5, 11, 1, 7}
	want := []sm.NodeID{1, 2, 5, 7, 9, 11, 14}
	v := NewView()
	for round, order := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 1, 5, 2, 4}, {5, 1, 3, 6, 0, 4, 2}} {
		v.Reset()
		if len(v.IDs()) != 0 || v.Get(9) != nil {
			t.Fatalf("round %d: Reset left entries behind", round)
		}
		for _, i := range order {
			v.Add(ids[i], &fakeSvc{self: ids[i], val: round}, nil)
		}
		v.Add(5, &fakeSvc{self: 5, val: 100 + round}, sm.TimerSet{"t"}) // replaces
		v.Add(14, &fakeSvc{self: 14, val: round}, nil)                  // replaces the last
		if got := v.IDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: IDs = %v, want %v", round, got, want)
		}
		if nodes := v.Nodes(); len(nodes) != len(want) {
			t.Fatalf("round %d: %d node views for %d ids", round, len(nodes), len(want))
		}
		for i, nv := range v.Nodes() {
			if nv.Svc.(*fakeSvc).self != want[i] || v.Get(want[i]).Svc != nv.Svc {
				t.Fatalf("round %d: Nodes()[%d] holds node %d, IDs()[%d] is %d", round, i, nv.Svc.(*fakeSvc).self, i, want[i])
			}
		}
		for _, id := range want {
			nv := v.Get(id)
			if nv == nil || nv.Svc.(*fakeSvc).self != id {
				t.Fatalf("round %d: Get(%d) = %+v, entries misaligned with ids", round, id, nv)
			}
			wantVal, wantTimer := round, false
			if id == 5 {
				wantVal, wantTimer = 100+round, true
			}
			if nv.Svc.(*fakeSvc).val != wantVal || nv.TimerPending("t") != wantTimer {
				t.Fatalf("round %d: node %d holds val %d timer %v", round, id, nv.Svc.(*fakeSvc).val, nv.TimerPending("t"))
			}
		}
		for _, absent := range []sm.NodeID{0, 3, 10, 15} {
			if v.Get(absent) != nil {
				t.Fatalf("round %d: absent node %d found", round, absent)
			}
		}
	}
}
