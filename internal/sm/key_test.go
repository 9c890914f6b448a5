package sm

import (
	"strings"
	"testing"
)

// add is an app call whose name does not pin it: two adds differ by argument.
type add struct{ N int }

func (add) CallName() string        { return "Add" }
func (a add) EncodeCall(e *Encoder) { e.Int(a.N) }

// TestEventKeyTextAndClass pins the rendering against text. It feeds every
// edge seed (so every random draw a handler makes in the checker) and every
// violation signature, so a change here moves every recorded digest.
func TestEventKeyTextAndClass(t *testing.T) {
	for _, c := range []struct {
		ev          Event
		text, class string
	}{
		{Delivery(1, 2, ping{}), "n2: deliver Ping from n1", "msg:Ping"},
		{Delivery(NoNode, 0, ping{}), "n0: deliver Ping from n?", "msg:Ping"},
		{TimerFiring(3, "tick"), "n3: timer tick", "timer:tick"},
		{TimerFiring(2147483647, ""), "n2147483647: timer ", "timer:"},
		{AppInvocation(4, poke{}, nil), "n4: app Poke", "app:Poke"},
		{Reset(5), "n5: reset", "reset"},
		{TransportError(6, 7), "n6: transport error for n7", "error"},
		{TransportError(0, NoNode), "n0: transport error for n?", "error"},
		{RSTDrop(8, 9), "drop RST n8->n9", "drop"},
	} {
		k := c.ev.EventKey
		if got := c.ev.Describe(); got != c.text {
			t.Errorf("Describe() = %q, want %q", got, c.text)
		}
		if got := k.String(); got != c.text {
			t.Errorf("key text = %q, want %q", got, c.text)
		}
		if got, want := k.Fold(FNV64aInit), FNV64aString(FNV64aInit, c.text); got != want {
			t.Errorf("%s: Fold = %#x, want the text's FNV %#x", c.text, got, want)
		}
		if got := k.Class(); got != c.class {
			t.Errorf("%s: Class() = %q, want %q", c.text, got, c.class)
		}
	}
	// A text longer than Fold's stack buffer still folds whole.
	long := TimerFiring(1, TimerID(strings.Repeat("x", 200)))
	if got, want := long.Fold(FNV64aInit), FNV64aString(FNV64aInit, long.Describe()); got != want {
		t.Errorf("long key: Fold = %#x, want %#x", got, want)
	}
}

// TestEventKeyEqualityIsTransitionIdentity: two events have equal keys iff
// they are the same transition. Same-named app calls at one node differ by
// argument; a delivery's payload is not part of its identity (the FIFO head
// is what gets delivered).
func TestEventKeyEqualityIsTransitionIdentity(t *testing.T) {
	enc := NewEncoder()
	key := func(at NodeID, call AppCall) EventKey { return AppInvocation(at, call, enc).EventKey }
	if key(1, add{N: 1}) == key(1, add{N: 2}) {
		t.Error("Add(1) and Add(2) at one node share a key")
	}
	if key(1, add{N: 1}) != key(1, add{N: 1}) {
		t.Error("the same call has two keys")
	}
	if key(1, add{N: 1}) == key(2, add{N: 1}) {
		t.Error("the same call at two nodes shares a key")
	}
	if got := AppInvocation(1, add{N: 1}, nil).EventKey; got.Arg != 0 || got.String() != "n1: app Add" {
		t.Errorf("without an encoder the key is %+v, want the name with a zero Arg", got)
	}
	// A timer and an app call that spell the same name never alias.
	if TimerFiring(1, "Add").EventKey == AppInvocation(1, add{}, nil).EventKey {
		t.Error("a timer and an app call share a key")
	}
	// A delivery's key names the queue head, not what it carries: its Arg is
	// zero, and its descriptor adds the payload's fingerprint.
	if d := Delivery(1, 2, ping{}); d.Name != "Ping" || d.Arg != 0 || DescOf(d, enc).Arg != PayloadHash(ping{}, enc) {
		t.Errorf("delivery key %+v, descriptor %+v", d.EventKey, DescOf(d, enc))
	}
}

// TestEventKeyAllocs: building an event (fingerprinting an app call on a
// reused encoder), taking its descriptor, folding its text and comparing keys
// allocate nothing — the checker does all of it per transition.
func TestEventKeyAllocs(t *testing.T) {
	enc := NewEncoder()
	var msg Message = ping{}
	var call AppCall = add{N: 3}
	events := func() [6]Event {
		return [6]Event{
			Delivery(1, 2, msg),
			TimerFiring(3, "tick"),
			AppInvocation(4, call, enc),
			Reset(5),
			TransportError(6, 7),
			RSTDrop(8, 9),
		}
	}
	events() // size the scratch buffer once
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		evs := events()
		for _, ev := range evs {
			k := DescOf(ev, enc)
			sink += k.Fold(FNV64aInit)
			if ev.EventKey == evs[0].EventKey {
				sink++
			}
		}
	}); n != 0 {
		t.Errorf("event construction + descriptor + fold allocates %.0f times per six events, want 0", n)
	}
	_ = sink
}
