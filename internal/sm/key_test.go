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
		{MsgEvent{From: 1, To: 2, Msg: ping{}}, "n2: deliver Ping from n1", "msg:Ping"},
		{MsgEvent{From: NoNode, To: 0, Msg: ping{}}, "n0: deliver Ping from n?", "msg:Ping"},
		{TimerEvent{At: 3, Timer: "tick"}, "n3: timer tick", "timer:tick"},
		{TimerEvent{At: 2147483647, Timer: ""}, "n2147483647: timer ", "timer:"},
		{AppEvent{At: 4, Call: poke{}}, "n4: app Poke", "app:Poke"},
		{ResetEvent{At: 5}, "n5: reset", "reset"},
		{ErrorEvent{At: 6, Peer: 7}, "n6: transport error for n7", "error"},
		{ErrorEvent{At: 0, Peer: NoNode}, "n0: transport error for n?", "error"},
		{DropEvent{From: 8, To: 9}, "drop RST n8->n9", "drop"},
	} {
		k := KeyOf(c.ev, NewEncoder())
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
		if k.Node != c.ev.Node() {
			t.Errorf("%s: key executes at %s, event at %s", c.text, k.Node, c.ev.Node())
		}
	}
	// A text longer than Fold's stack buffer still folds whole.
	long := TimerEvent{At: 1, Timer: TimerID(strings.Repeat("x", 200))}
	if got, want := KeyOf(long, nil).Fold(FNV64aInit), FNV64aString(FNV64aInit, long.Describe()); got != want {
		t.Errorf("long key: Fold = %#x, want %#x", got, want)
	}
}

// TestEventKeyEqualityIsTransitionIdentity: two events have equal keys iff
// they are the same transition. Same-named app calls at one node differ by
// argument; a delivery's payload is not part of its identity (the FIFO head
// is what gets delivered).
func TestEventKeyEqualityIsTransitionIdentity(t *testing.T) {
	enc := NewEncoder()
	key := func(ev Event) EventKey { return KeyOf(ev, enc) }
	if key(AppEvent{At: 1, Call: add{N: 1}}) == key(AppEvent{At: 1, Call: add{N: 2}}) {
		t.Error("Add(1) and Add(2) at one node share a key")
	}
	if key(AppEvent{At: 1, Call: add{N: 1}}) != key(AppEvent{At: 1, Call: add{N: 1}}) {
		t.Error("the same call has two keys")
	}
	if key(AppEvent{At: 1, Call: add{N: 1}}) == key(AppEvent{At: 2, Call: add{N: 1}}) {
		t.Error("the same call at two nodes shares a key")
	}
	if got := KeyOf(AppEvent{At: 1, Call: add{N: 1}}, nil); got.Arg != 0 || got.String() != "n1: app Add" {
		t.Errorf("without an encoder the key is %+v, want the name with a zero Arg", got)
	}
	// A timer and an app call that spell the same name never alias.
	if key(TimerEvent{At: 1, Timer: "Add"}) == KeyOf(AppEvent{At: 1, Call: add{}}, nil) {
		t.Error("a timer and an app call share a key")
	}
}

// TestEventKeyCodec: a key survives the wire, and a kind byte that is none
// of the six is refused by the decoder.
func TestEventKeyCodec(t *testing.T) {
	for _, k := range []EventKey{
		{Kind: 'M', From: 1, Node: 2, Name: "Join", Arg: 7},
		{Kind: 'T', Node: 3, Name: "recovery"},
		{Kind: 'A', Node: 1, Name: "propose", Arg: 1 << 63},
		{Kind: 'R', Node: 2},
		{Kind: 'E', From: NoNode, Node: 1},
		{Kind: 'D', From: 2, Node: 1},
	} {
		enc := NewEncoder()
		enc.EventKey(k)
		d := NewDecoder(enc.Bytes())
		if got := d.EventKey(); got != k || d.Err() != nil || d.Remaining() != 0 {
			t.Errorf("%+v decodes as %+v (err %v, %d bytes left)", k, got, d.Err(), d.Remaining())
		}
	}
	for _, kind := range []byte{0, 'm', 'X', 0xff} {
		enc := NewEncoder()
		enc.EventKey(EventKey{Kind: kind, Node: 1})
		d := NewDecoder(enc.Bytes())
		if d.EventKey(); d.Err() == nil {
			t.Errorf("decoder accepted kind %q", kind)
		}
	}
}

// TestEventKeyAllocs: building a key, folding its text and comparing keys
// allocate nothing — the checker does all three per transition.
func TestEventKeyAllocs(t *testing.T) {
	enc := NewEncoder()
	events := []Event{
		MsgEvent{From: 1, To: 2, Msg: ping{}},
		TimerEvent{At: 3, Timer: "tick"},
		AppEvent{At: 4, Call: add{N: 3}},
		ResetEvent{At: 5},
		ErrorEvent{At: 6, Peer: 7},
		DropEvent{From: 8, To: 9},
	}
	KeyOf(events[2], enc) // size the scratch buffer once
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		for _, ev := range events {
			k := KeyOf(ev, enc)
			sink += k.Fold(FNV64aInit)
			if k == KeyOf(events[0], nil) {
				sink++
			}
		}
	}); n != 0 {
		t.Errorf("key construction + fold allocates %.0f times per six events, want 0", n)
	}
	_ = sink
}
