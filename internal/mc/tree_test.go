package mc

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Tests for the slab tree: its layout, its storage, and the rule that a path
// is its descriptors replayed.

// pointerFree reports whether values of t hold no pointer the collector
// would have to follow.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default: // pointers, slices, strings, maps, chans, funcs, interfaces, uintptr-as-pointer
		return false
	}
}

// TestTreeEntryIsPointerFree: what the tree keeps per claimed state is one
// fixed-size value with no pointer in it, so the slabs are allocated noscan
// and a tree of any size costs the collector nothing to mark. held is the
// counter-example the walk must reject.
func TestTreeEntryIsPointerFree(t *testing.T) {
	if typ := reflect.TypeOf(entry{}); !pointerFree(typ) {
		t.Errorf("%v holds a pointer-bearing field", typ)
	}
	if size := unsafe.Sizeof(entry{}); size > 32 {
		t.Errorf("entry is %d bytes, want <= 32", size)
	}
	// A held entry names its sleep set by an offset and a length into its
	// bucket's storage, not by a slice header of its own.
	if size := unsafe.Sizeof(held{}); size > 24 {
		t.Errorf("held is %d bytes, want <= 24", size)
	}
	if pointerFree(reflect.TypeOf(held{})) || pointerFree(reflect.TypeOf(sm.EventKey{})) {
		t.Error("the walk calls a struct with a pointer or a string pointer-free")
	}
}

// TestSlabNeverMovesAndStaysTight: a pushed value keeps its address while the
// slab grows by five orders of magnitude, index i reads back what push i
// stored, the first chunk is 1<<shift values, and of the chunks allocated at
// most a third is ever unused (past the first two chunks).
func TestSlabNeverMovesAndStaysTight(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		s := slab[uint64]{shift: 3}
		if pinned {
			s.pin()
		}
		var addrs []*uint64
		for i := 0; i < 300000; i++ {
			if got := s.push(uint64(i) * 3); got != i {
				t.Fatalf("push %d returned index %d", i, got)
			}
			if i&(i-1) == 0 { // powers of two: a sample of early and late values
				addrs = append(addrs, s.at(i))
			}
			if slots := s.bytes() / 8; slots > int64(i+1)*3/2+16 {
				t.Fatalf("pinned=%v: %d slots allocated for %d values", pinned, slots, i+1)
			}
		}
		if len(s.chunks[0]) != 8 {
			t.Fatalf("first chunk holds %d values, want 8", len(s.chunks[0]))
		}
		for k, i := 0, 0; i < 300000; k, i = k+1, max(1, i*2) {
			if s.at(i) != addrs[k] || *s.at(i) != uint64(i)*3 {
				t.Fatalf("pinned=%v: value %d moved or changed: %p/%d, was %p", pinned, i, s.at(i), *s.at(i), addrs[k])
			}
		}
		if pinned != (len(s.chunks) == slabSlots) {
			t.Fatalf("pinned=%v: directory of %d slots", pinned, len(s.chunks))
		}
	}
	// The directory never outgrows slabSlots for any int32 index.
	s := slab[entry]{shift: entryShift}
	if c, _ := s.locate(1<<31 - 1); c >= slabSlots {
		t.Fatalf("the last int32 index lands in chunk %d of %d", c, slabSlots)
	}
}

// TestPathOracleToy runs the path oracle (CheckPathOracle) on the toy model,
// in both breadth-first modes with reduction off and on.
func TestPathOracleToy(t *testing.T) {
	for _, mode := range []Mode{Exhaustive, Consequence} {
		for _, reduce := range []bool{false, true} {
			cfg := Config{Props: poisonAt(3), Factory: newToy, Mode: mode, Reduce: reduce, ExploreResets: true, Budget: Budget{Depth: 6}}
			if n := CheckPathOracle(t, cfg, longQueueStart()); n < 1000 && mode == Exhaustive {
				t.Fatalf("%v reduce=%v: only %d states claimed", mode, reduce, n)
			}
		}
	}
}

// TestPathOracleAcrossEngines is the sharded form of the path oracle: two
// engines own half the fingerprint space each and hand each other the
// successors they do not own, round by round, each draining in its own
// goroutine. A receiver resolves every arrival's path on the spot — a walk
// through the sender's tree, while the sender is busy appending to it — and
// at the end every entry of both trees has a path from the start state that
// replays to its hash, most of them crossing from tree to tree on the way.
// Run under -race (make race) this is what holds the trees' hand-off rule to
// account: a forwarded Ref reaches only values written before the hand-off.
func TestPathOracleAcrossEngines(t *testing.T) {
	cfg := Config{Props: poisonAt(1000), Factory: newToy, Mode: Exhaustive, ExploreResets: true, RecordClaimedStates: true, Budget: Budget{Depth: 5, Workers: 1}}
	start := wideStart()
	want := NewSearch(cfg).Run(start).ClaimedStates

	s := NewSearch(cfg)
	type side struct {
		e       *Engine
		in, out []Forward
	}
	sides := make([]*side, 2)
	for i := range sides {
		sd := &side{}
		sd.e = s.NewEngine(cfg.Budget, ShardRange(i, 2), func(f Forward) error {
			sd.out = append(sd.out, f)
			return nil
		})
		sides[i] = sd
	}
	sides[ShardOwner(start.Hash(), 2)].in = []Forward{{State: start}}
	arrivals := 0
	for len(sides[0].in)+len(sides[1].in) > 0 {
		arrivals += len(sides[0].in) + len(sides[1].in)
		var wg sync.WaitGroup
		for _, sd := range sides {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := s.NewExpander()
				for _, f := range sd.in {
					if f.Parent.t != nil {
						keys := append(f.Parent.Keys(), f.Desc)
						if _, g, err := s.ReplayKeys(x, start, keys); err != nil || g.Hash() != f.State.Hash() || len(keys) != f.Depth {
							t.Errorf("arrival at depth %d: %d-key path, err %v", f.Depth, len(keys), err)
						}
					}
					sd.e.Inject(f)
				}
				if err := sd.e.Drain(nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		sides[0].in, sides[1].in = sides[1].out, sides[0].out
		sides[0].out, sides[1].out = nil, nil
	}

	var claimed []uint64
	crossed := 0
	x := s.NewExpander()
	for _, sd := range sides {
		claimed = append(claimed, sd.e.ClaimedStates()...)
		for i := 0; i < sd.e.tree.entries.n; i++ {
			r := Ref{sd.e.tree, int32(i)}
			path, g, err := s.ReplayKeys(x, start, r.Keys())
			if err != nil || len(path) != r.Depth() || g.Hash() != r.Hash() {
				t.Fatalf("entry %d: %d-event path for depth %d reaches %v, entry is %#x (err %v)", i, len(path), r.Depth(), g, r.Hash(), err)
			}
			trees := 1
			for at := r; ; {
				up, ok := at.up()
				if !ok {
					break
				}
				if up.t != at.t {
					trees++
				}
				at = up
			}
			if trees > 2 {
				crossed++
			}
		}
	}
	slices.Sort(claimed)
	if !slices.Equal(claimed, want) {
		t.Fatalf("the two engines claimed %d states, the serial search %d", len(claimed), len(want))
	}
	if crossed < 100 || arrivals < 1000 {
		t.Fatalf("%d arrivals, %d paths through three or more tree segments: the oracle crossed too little", arrivals, crossed)
	}
}

// TestMoreThanSixtyFourProperties says what a configuration with more
// properties than a path set has bits does: it is handled, not refused. The
// first 63 report their onsets exactly; the rest share the last bit, so a
// path reports one onset between them — naming every one of them violated
// where it happens — and a later one of them on the same path is not an
// onset again.
func TestMoreThanSixtyFourProperties(t *testing.T) {
	counterBelow := func(name string, n int) props.Property {
		return props.Property{Name: name, Check: poisonAt(n)[0].Check}
	}
	var ps props.Set
	for i := 0; i < 70; i++ {
		ps = append(ps, props.Property{Name: "holds", Check: func(*props.View) bool { return true }})
	}
	ps[10] = counterBelow("exact", 2) // an ordinary bit
	ps[65] = counterBelow("tail-a", 1)
	ps[69] = counterBelow("tail-b", 3)
	g := NewGState()
	g.AddNode(1, newToy(1), sm.TimerSet{"tick"})
	res := NewSearch(Config{Props: ps, Factory: newToy, Mode: Exhaustive, Budget: Budget{Depth: 4, Workers: 1}}).Run(g)
	var got [][]string
	for _, v := range res.Violations {
		got = append(got, append([]string{}, v.Properties...))
		if len(v.Path) != v.Depth {
			t.Errorf("%v at depth %d has a %d-event path", v.Properties, v.Depth, len(v.Path))
		}
	}
	// The counter reaches 1 (tail-a: the shared onset), 2 (exact) and 3
	// (tail-b: the shared bit is already on the path).
	if want := [][]string{{"tail-a"}, {"exact"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("violations %v, want %v", got, want)
	}
	// With tail-a out of the way tail-b is the shared bit's onset.
	ps[65] = ps[0]
	res = NewSearch(Config{Props: ps, Factory: newToy, Mode: Exhaustive, Budget: Budget{Depth: 4, Workers: 1}}).Run(g)
	if len(res.Violations) != 2 || !reflect.DeepEqual(res.Violations[1].Properties, []string{"tail-b"}) {
		t.Fatalf("violations %+v, want exact then tail-b", res.Violations)
	}
}
