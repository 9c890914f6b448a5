// Package a exercises the rules table as it stands, from a package no row
// allows anything in: each row's hits, including through an aliased import,
// and the look-alikes that only share a name or a spelling with one.
package a

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"time"

	s "crystalball/internal/sm"
)

// --- timer-set ---------------------------------------------------------------

var pending map[s.TimerID]struct{} // want `timer-set: set of sm.TimerID held as a map`

type timerAlias = s.TimerID

var aliased = map[timerAlias]bool{} // want `timer-set`

// Not a timer set: a map from a timer to what it scheduled, a set of another
// type, and a local type that is only spelled TimerID.
type TimerID string

var (
	scheduled = map[s.TimerID]int{}
	names     = map[string]bool{}
	local     = map[TimerID]bool{}
	sorted    s.TimerSet
)

// --- one-executor ------------------------------------------------------------

// echo implements s.Service through the embedded interface and overrides
// one handler.
type echo struct{ s.Service }

func (echo) HandleMessage(ctx s.Context, from s.NodeID, msg s.Message) {}

func run(svc s.Service, st s.StableStore, e echo, ctx s.Context, ev s.Event) {
	svc.HandleMessage(ctx, ev.From, ev.Msg) // want `one-executor: use of sm.Service.HandleMessage`
	fire := svc.HandleTimer                 // want `one-executor: use of sm.Service.HandleTimer`
	fire(ctx, s.TimerID(ev.Name))
	e.HandleMessage(ctx, ev.From, ev.Msg)    // want `one-executor: use of sm.Service.HandleMessage`
	e.HandleApp(ctx, ev.Call)                // want `one-executor: use of sm.Service.HandleApp`
	st.RestoreStable(nil)                    // want `one-executor: use of sm.StableStore.RestoreStable`
	(*echo).HandleTransportError(&e, ctx, 2) // want `one-executor: use of sm.Service.HandleTransportError`
	s.Deliver(svc, ctx, ev)
}

// notService has a handler's name but is no service.
type notService struct{}

func (notService) HandleMessage(n int) {}

func lookalike() { notService{}.HandleMessage(1) }

// --- one-event-switch --------------------------------------------------------

func kinds(ev *s.Event, k s.EventKey, f s.Filter, b byte) {
	switch ev.Kind { // want `one-event-switch: switch on sm.EventKey.Kind`
	case 'M':
	}
	switch k.Kind { // want `one-event-switch`
	case 'T':
	}
	// A filter's key is an event key.
	switch f.Key.Kind { // want `one-event-switch`
	case 'A':
	}
	// Not an event-kind switch: a rune switch on another byte, a local
	// struct's Kind.
	switch b {
	case 'M', 'T', 'A', 'E', 'R', 'D':
	}
	type key struct{ Kind byte }
	switch (key{}).Kind {
	case 'M':
	}
	if ev.Kind == 'M' {
		return
	}
}

// --- names the removed text rules matched --------------------------------------

// cand, MsgEvent and RandomWalk are ordinary identifiers now.
func cand() {
	MsgEvent, RandomWalk := 1, 2
	fmt.Println(MsgEvent + RandomWalk)
}

// --- global-rand -------------------------------------------------------------

func draw() int {
	return rand.Intn(10) // want `global-rand: use of math/rand.Intn`
}

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want `global-rand: use of math/rand.Shuffle`
		xs[i], xs[j] = xs[j], xs[i]
	})
}

func jitter() float64 {
	return rand.Float64() // want `global-rand: use of math/rand.Float64`
}

func drawV2() (int, uint64) {
	return randv2.IntN(10), randv2.N[uint64](7) // want `global-rand: use of math/rand/v2.IntN` `global-rand: use of math/rand/v2.N`
}

// draws is a value reference to the global source: a use, like a call.
var draws = rand.Int63 // want `global-rand: use of math/rand.Int63`

// seeded builds private sources: the constructors and the methods of a
// *rand.Rand are no hit.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	r2 := randv2.New(randv2.NewPCG(1, 2))
	return r.Intn(10) + r2.IntN(10)
}

// --- wall-clock ----------------------------------------------------------------

// Package a is outside the deterministic packages the row covers: its wall
// clock is no hit.
func stamp() time.Duration {
	t0 := time.Now()
	return time.Since(t0)
}
