package sm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint64(1 << 60)
	e.Int64(-42)
	e.Uint32(7)
	e.Int(-9)
	e.Bool(true)
	e.Bool(false)
	e.NodeID(13)
	e.String("hello")
	e.Bytes2([]byte{1, 2, 3})
	e.NodeSet(map[NodeID]bool{3: true, 1: true, 2: true})
	e.NodeSlice([]NodeID{9, 5, 7})

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != 1<<60 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := d.Uint32(); got != 7 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := d.Int(); got != -9 {
		t.Fatalf("Int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.NodeID(); got != 13 {
		t.Fatalf("NodeID = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Bytes2(); !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes2 = %v", got)
	}
	if got := d.NodeSet(); !reflect.DeepEqual(got, map[NodeID]bool{1: true, 2: true, 3: true}) {
		t.Fatalf("NodeSet = %v", got)
	}
	if got := d.NodeSlice(); !reflect.DeepEqual(got, []NodeID{9, 5, 7}) {
		t.Fatalf("NodeSlice = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("decoder error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", d.Remaining())
	}
}

func TestDecodePastEndSetsErr(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.Uint64()
	if d.Err() == nil {
		t.Fatal("expected error reading past end")
	}
	// Subsequent reads keep the first error and return zero values.
	if d.Uint32() != 0 || d.Err() == nil {
		t.Fatal("error should be sticky")
	}
}

func TestDecodeBadLengths(t *testing.T) {
	e := NewEncoder()
	e.Uint32(1 << 30) // absurd string length
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("expected length error, got %q err=%v", s, d.Err())
	}

	e2 := NewEncoder()
	e2.Uint32(1 << 30)
	d2 := NewDecoder(e2.Bytes())
	if set := d2.NodeSet(); set != nil || d2.Err() == nil {
		t.Fatal("expected NodeSet length error")
	}
}

// Property: NodeSet encoding is independent of insertion order, so equal
// sets hash equally — this is what makes state hashing sound for map-backed
// service state.
func TestPropertyNodeSetEncodingCanonical(t *testing.T) {
	f := func(ids []int16, seed int64) bool {
		set1 := make(map[NodeID]bool)
		for _, id := range ids {
			set1[NodeID(id)] = true
		}
		// Insert in a shuffled order into a second map.
		perm := rand.New(rand.NewSource(seed)).Perm(len(ids))
		set2 := make(map[NodeID]bool)
		for _, i := range perm {
			set2[NodeID(ids[i])] = true
		}
		e1, e2 := NewEncoder(), NewEncoder()
		e1.NodeSet(set1)
		e2.NodeSet(set2)
		return e1.Hash() == e2.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: strings round-trip through the encoder.
func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(s string, b []byte) bool {
		e := NewEncoder()
		e.String(s)
		e.Bytes2(b)
		d := NewDecoder(e.Bytes())
		gs := d.String()
		gb := d.Bytes2()
		if d.Err() != nil {
			return false
		}
		if gs != s {
			return false
		}
		if len(b) == 0 {
			return len(gb) == 0
		}
		return reflect.DeepEqual(gb, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(5).String() != "n5" {
		t.Fatalf("got %q", NodeID(5).String())
	}
	if NoNode.String() != "n?" {
		t.Fatalf("got %q", NoNode.String())
	}
	if NodeID(0).String() != "n0" {
		t.Fatalf("got %q", NodeID(0).String())
	}
}

func TestSortedNodes(t *testing.T) {
	set := map[NodeID]bool{5: true, 1: true, 3: true, 9: false}
	got := SortedNodes(set)
	want := []NodeID{1, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedNodes = %v, want %v", got, want)
	}
}

func TestCloneNodeSetIndependence(t *testing.T) {
	orig := map[NodeID]bool{1: true, 2: true}
	cp := CopyNodeSet(nil, orig)
	cp[3] = true
	delete(cp, 1)
	if !orig[1] || orig[3] {
		t.Fatal("clone mutated the original")
	}
	// Copied into a set that held other nodes, the copy keeps none of them.
	if got := CopyNodeSet(cp, orig); !reflect.DeepEqual(got, orig) {
		t.Fatalf("copy into a used set = %v, want %v", got, orig)
	}
}
