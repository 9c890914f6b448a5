package mc

import (
	"math/rand"
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
// seed ^ FNV-64a(lhash bytes, ev.Describe() bytes), the text folded by the
// event's key without building the string. Seeding from the *executing
// node's* hash — not the global state hash — makes a handler's effect,
// random draws included, a pure function of (node local state, event): the
// property the partial-order reduction's commutation promises rest on
// (reduce.go), and a better model of service randomness besides (a node's
// dice cannot depend on state it has never observed).
//
//crystal:hotpath
func edgeSeed(seed int64, lhash uint64, ev sm.Event) int64 {
	h := sm.FNV64aInit
	for i := 0; i < 8; i++ {
		h = sm.FNV64aByte(h, byte(lhash>>(8*i)))
	}
	return seed ^ int64(sm.KeyOf(ev, nil).Fold(h))
}
