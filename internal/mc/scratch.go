package mc

import (
	"math/rand"
	"strconv"
	"sync"

	"crystalball/internal/sm"
)

// scratch is the per-worker reusable workspace for successor construction:
// one encoder for component hashing (finalize/addMsg/staleComp/resetsComp),
// the buffering handler context with its working timer set, and a
// re-seedable random stream for edgeRNG. A scratch is checked out of
// scratchPool for the duration of one ApplyEvent (or one public GState
// mutator) and never escapes it: nothing constructed on the scratch is
// reachable from the returned state except bytes explicitly copied out.
type scratch struct {
	enc sm.Encoder
	fx  sm.Effects
	rnd *rand.Rand // re-seeded per edge; identical stream to a fresh sm.NewRand
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{rnd: sm.NewRand(0)}
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// edgeSeed derives the deterministic per-edge random seed for executing
// event ev at a node whose local-state hash is lhash:
// seed ^ FNV-64a(lhash bytes, ev.Describe()-equivalent bytes). Seeding from
// the *executing node's* hash — not the global state hash — makes a
// handler's effect, random draws included, a pure function of (node local
// state, event): the property the partial-order reduction's commutation
// promises rest on (reduce.go), and a better model of service randomness
// besides (a node's dice cannot depend on state it has never observed).
// The FNV streams the event through fnvEvent without materialising the
// Describe string, so the hot path allocates nothing;
// TestFNVEventMatchesDescribe pins the equivalence for every event kind.
//
//crystal:hotpath
func edgeSeed(seed int64, lhash uint64, ev sm.Event) int64 {
	h := sm.FNV64aInit
	for i := 0; i < 8; i++ {
		h = sm.FNV64aByte(h, byte(lhash>>(8*i)))
	}
	return seed ^ int64(fnvEvent(h, ev))
}

// fnvEvent folds ev.Describe()'s exact byte sequence into h without
// building the string. Each case mirrors the fmt.Sprintf format in
// sm/events.go; fnvNode mirrors NodeID.String ("n<k>", "n?" for NoNode).
//
//crystal:hotpath
func fnvEvent(h uint64, ev sm.Event) uint64 {
	switch e := ev.(type) {
	case sm.MsgEvent:
		h = fnvNode(h, e.To)
		h = sm.FNV64aString(h, ": deliver ")
		h = sm.FNV64aString(h, e.Msg.MsgType())
		h = sm.FNV64aString(h, " from ")
		h = fnvNode(h, e.From)
	case sm.TimerEvent:
		h = fnvNode(h, e.At)
		h = sm.FNV64aString(h, ": timer ")
		h = sm.FNV64aString(h, string(e.Timer))
	case sm.AppEvent:
		h = fnvNode(h, e.At)
		h = sm.FNV64aString(h, ": app ")
		h = sm.FNV64aString(h, e.Call.CallName())
	case sm.ResetEvent:
		h = fnvNode(h, e.At)
		h = sm.FNV64aString(h, ": reset")
	case sm.ErrorEvent:
		h = fnvNode(h, e.At)
		h = sm.FNV64aString(h, ": transport error for ")
		h = fnvNode(h, e.Peer)
	case sm.DropEvent:
		h = sm.FNV64aString(h, "drop RST ")
		h = fnvNode(h, e.From)
		h = sm.FNV64aString(h, "->")
		h = fnvNode(h, e.To)
	default:
		h = sm.FNV64aString(h, ev.Describe())
	}
	return h
}

// fnvNode folds NodeID.String()'s bytes into h without allocating.
//
//crystal:hotpath
func fnvNode(h uint64, n sm.NodeID) uint64 {
	if n == sm.NoNode {
		return sm.FNV64aString(h, "n?")
	}
	h = sm.FNV64aByte(h, 'n')
	var buf [12]byte
	return sm.FNV64aBytes(h, strconv.AppendInt(buf[:0], int64(n), 10))
}
