package sm_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/sm"
)

// fullStateCorpus returns, per registered scenario, its service factory and
// the full-state encodings of real node states: every node of the initial
// state (fresh services, no timers) and of the states one reset later (Init
// has run: timers pending).
func fullStateCorpus(tb testing.TB) (factories []sm.Factory, states [][][]byte) {
	tb.Helper()
	for _, name := range scenario.Names() {
		g, cfg, err := scenario.InitialState(name, scenario.Options{Nodes: 3})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.ExploreResets = true
		s := mc.NewSearch(cfg)
		var encs [][]byte
		for _, id := range g.Nodes() {
			for _, st := range []*mc.GState{g, s.ApplyEvent(g, sm.Reset(id))} {
				if st != nil {
					ns := st.Node(id)
					encs = append(encs, sm.EncodeFullState(ns.Svc, ns.Timers))
				}
			}
		}
		factories = append(factories, cfg.Factory)
		states = append(states, encs)
	}
	return factories, states
}

// checkDecodeFullState is the decoder's contract on arbitrary bytes: it
// returns (it neither panics nor sizes anything from an unchecked count), and
// whatever it accepts holds the timer-set invariant and re-encodes to a
// canonical form — one that decodes to an equal value and encodes to itself.
func checkDecodeFullState(t *testing.T, factory sm.Factory, data []byte) {
	t.Helper()
	svc, timers, err := sm.DecodeFullState(factory, 1, data)
	if err != nil {
		return
	}
	for i := 1; i < len(timers); i++ {
		if timers[i-1] >= timers[i] {
			t.Fatalf("decoded timer set %v is not strictly ascending", timers)
		}
	}
	canon := sm.EncodeFullState(svc, timers)
	svc2, timers2, err := sm.DecodeFullState(factory, 1, canon)
	if err != nil {
		t.Fatalf("re-encoding of an accepted state does not decode: %v", err)
	}
	if !timers2.Equal(timers) {
		t.Fatalf("timers %v re-decode as %v", timers, timers2)
	}
	if again := sm.EncodeFullState(svc2, timers2); !bytes.Equal(again, canon) {
		t.Fatalf("re-encoding is not canonical: %x then %x", canon, again)
	}
}

// corruptTimerCount returns enc, a valid full-state encoding with no timers
// (so its last four bytes are the timer count), with that count set to n.
func corruptTimerCount(enc []byte, n uint32) []byte {
	out := slices.Clone(enc)
	binary.BigEndian.PutUint32(out[len(out)-4:], n)
	return out
}

// TestDecodeFullStateRejectsCorruptTimerCount: four flipped bytes in a
// checkpoint a peer sent used to be a make(map, 2³¹) and the end of the
// process. Every scenario's real states still round-trip, and the same
// states with an absurd timer count are a decode error.
func TestDecodeFullStateRejectsCorruptTimerCount(t *testing.T) {
	factories, states := fullStateCorpus(t)
	for i, factory := range factories {
		for _, enc := range states[i] {
			if _, _, err := sm.DecodeFullState(factory, 1, enc); err != nil {
				t.Fatalf("scenario %d: a real node state does not decode: %v", i, err)
			}
			checkDecodeFullState(t, factory, enc)
		}
		// The initial state's nodes have no timers.
		for _, n := range []uint32{0x7fffffff, 0xffffffff, 1} {
			if _, _, err := sm.DecodeFullState(factory, 1, corruptTimerCount(states[i][0], n)); err == nil {
				t.Errorf("scenario %d: timer count %#x over an empty buffer decoded without error", i, n)
			}
		}
	}
	// Out-of-order names are normalised, a repeated name is refused.
	factory, enc := factories[0], states[0][0]
	e := sm.NewEncoder()
	e.Uint32(2)
	e.String("tock")
	e.String("tick")
	_, timers, err := sm.DecodeFullState(factory, 1, append(slices.Clone(enc[:len(enc)-4]), e.Bytes()...))
	if err != nil || !timers.Equal(sm.TimerSet{"tick", "tock"}) {
		t.Errorf("out-of-order timers decoded as %v, %v; want them sorted", timers, err)
	}
	e.Reset()
	e.Uint32(2)
	e.String("tick")
	e.String("tick")
	if _, _, err := sm.DecodeFullState(factory, 1, append(slices.Clone(enc[:len(enc)-4]), e.Bytes()...)); err == nil {
		t.Error("a repeated timer name decoded without error")
	}
}

// bulletSeeds returns bulletprime checkpoints no node could have written: a
// block set is a bitset over the file's blocks and the peer table has one
// entry per id, so the decoder must refuse (not build, not panic on) a block
// id past the file, a peer listed twice in one list and a set count the
// buffer cannot hold. Each is the fresh node 1 of the corpus (Have, three
// peer lists, Outstanding, Requested, Complete, then no timers) with one
// list replaced.
func bulletSeeds() [][]byte {
	state := func(have func(e *sm.Encoder), shadow func(e *sm.Encoder)) []byte {
		e := sm.NewEncoder()
		e.NodeID(1)
		have(e)
		shadow(e)
		e.Uint32(0) // Advertised
		e.Uint32(0) // FileMaps
		e.Uint32(0) // Outstanding
		e.Uint32(0) // Requested
		e.Bool(false)
		e.Uint32(0) // timers
		return slices.Clone(e.Bytes())
	}
	none := func(e *sm.Encoder) { e.Uint32(0) }
	return [][]byte{
		state(func(e *sm.Encoder) { e.Uint32(2); e.Int(0); e.Int(1 << 20) }, none),
		state(func(e *sm.Encoder) { e.Uint32(1); e.Int(-1) }, none),
		state(none, func(e *sm.Encoder) {
			e.Uint32(2)
			for i := 0; i < 2; i++ {
				e.NodeID(2)
				e.Uint32(1)
				e.Int(0)
			}
		}),
		state(func(e *sm.Encoder) { e.Uint32(0x7fffffff); e.Int(0) }, none),
		state(none, func(e *sm.Encoder) { e.Uint32(1); e.NodeID(2); e.Uint32(0x7fffffff) }),
	}
}

// FuzzDecodeFullState feeds mutated checkpoints to every registered
// scenario's decoder (which picks the scenario). Seeds: the real node states
// of fullStateCorpus, each scenario's first state with the timer count that
// used to exhaust memory, and bulletSeeds for the bulletprime decoder.
func FuzzDecodeFullState(f *testing.F) {
	factories, states := fullStateCorpus(f)
	for i := range factories {
		for _, enc := range states[i] {
			f.Add(uint8(i), enc)
		}
		f.Add(uint8(i), corruptTimerCount(states[i][0], 0x7fffffff))
	}
	bullet := slices.Index(scenario.Names(), "bulletprime")
	for _, enc := range bulletSeeds() {
		if _, _, err := sm.DecodeFullState(factories[bullet], 1, enc); err == nil {
			f.Errorf("bulletprime decoded the unrepresentable state %x without error", enc)
		}
		f.Add(uint8(bullet), enc)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		checkDecodeFullState(t, factories[int(which)%len(factories)], data)
	})
}
