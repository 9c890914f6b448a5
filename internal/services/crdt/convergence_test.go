package crdt

import (
	"bytes"
	"math/rand"
	"testing"

	"crystalball/internal/sm"
)

// newCtx returns the buffering context (sm.Effects) for direct handler tests.
func newCtx(self sm.NodeID) *sm.Effects {
	fx := new(sm.Effects)
	fx.Begin(self, nil, rand.New(rand.NewSource(1)))
	return fx
}

var oracleMembers = []sm.NodeID{1, 2, 3}

// op is one broadcast operation as issued: the message plus its origin.
type op struct {
	from sm.NodeID
	msg  sm.Message
}

// lastOp returns the operation the last HandleApp call broadcast (every
// peer receives identical content, so one send suffices).
func lastOp(ctx *sm.Effects) op {
	return op{from: ctx.Self(), msg: ctx.Sends[len(ctx.Sends)-1].Msg}
}

// scriptOps drives the scenario's op script on writer replicas built by
// factory and returns the concurrent op set the permutation oracle
// delivers: member 1 issues its two ops, member 2 issues its one op after
// delivering member 1's first — the same histories the staged and
// searched starts use.
func scriptOps(t *testing.T, factory sm.Factory, calls func(n int) sm.AppCall) []op {
	t.Helper()
	a, actx := factory(1), newCtx(1)
	b, bctx := factory(2), newCtx(2)
	var ops []op
	a.HandleApp(actx, calls(0))
	if len(actx.Sends) == 0 {
		t.Fatal("member 0 first op not broadcast")
	}
	first := lastOp(actx)
	ops = append(ops, first)
	b.HandleMessage(bctx, first.from, first.msg)
	a.HandleApp(actx, calls(1))
	ops = append(ops, lastOp(actx))
	b.HandleApp(bctx, calls(2))
	if len(bctx.Sends) == 0 {
		t.Fatal("member 1 op not broadcast")
	}
	ops = append(ops, lastOp(bctx))
	return ops
}

// fifoPermutations enumerates the delivery orders of ops that a receiver
// can observe: any interleaving that keeps each origin's ops in issue
// order (channels are FIFO per pair; nothing orders ops across origins).
func fifoPermutations(ops []op) [][]op {
	var out [][]op
	cur := make([]op, 0, len(ops))
	used := make([]bool, len(ops))
	var rec func()
	rec = func() {
		if len(cur) == len(ops) {
			out = append(out, append([]op(nil), cur...))
			return
		}
		seen := map[sm.NodeID]bool{}
		for i, o := range ops {
			if used[i] || seen[o.from] {
				continue
			}
			// Taking a later op of this origin first would violate
			// per-pair FIFO; mark the origin so only its earliest
			// unused op is a candidate.
			seen[o.from] = true
			used[i] = true
			cur = append(cur, o)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// convergedState delivers ops in order to a fresh passive replica
// (member index 2 issues nothing) and returns its encoded final state.
func convergedState(factory sm.Factory, order []op) []byte {
	r, ctx := factory(3), newCtx(3)
	for _, o := range order {
		r.HandleMessage(ctx, o.from, o.msg)
	}
	e := sm.NewEncoder()
	r.EncodeState(e)
	return append([]byte(nil), e.Bytes()...)
}

// TestConvergenceDifferentialOracle is the delivery-permutation oracle:
// for one fixed concurrent op set per scenario, every FIFO-legal delivery
// permutation must leave a fixed replica in a byte-identical state, and
// must leave the seeded-bug replica in at least two distinct states —
// the divergence the checker's ReplicaConvergence property hunts,
// reproduced without the search on top.
func TestConvergenceDifferentialOracle(t *testing.T) {
	cases := []struct {
		name    string
		factory func(fixed bool) sm.Factory
		calls   func(n int) sm.AppCall
	}{
		{
			name:    "gcounter",
			factory: func(fixed bool) sm.Factory { return NewCounter(oracleMembers, fixed) },
			calls:   func(int) sm.AppCall { return AppInc{} },
		},
		{
			name:    "orset",
			factory: func(fixed bool) sm.Factory { return NewSet(oracleMembers, fixed) },
			calls: func(n int) sm.AppCall {
				if n == 2 {
					return AppRemove{Elem: setElem}
				}
				return AppAdd{Elem: setElem}
			},
		},
		{
			name:    "lwwmap",
			factory: func(fixed bool) sm.Factory { return NewMap(oracleMembers, fixed) },
			calls:   func(int) sm.AppCall { return AppPut{Key: mapKey} },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, fixed := range []bool{true, false} {
				ops := scriptOps(t, tc.factory(fixed), tc.calls)
				perms := fifoPermutations(ops)
				if len(perms) < 3 {
					t.Fatalf("fixed=%v: only %d legal permutations", fixed, len(perms))
				}
				ref := convergedState(tc.factory(fixed), perms[0])
				diverged := false
				for _, p := range perms[1:] {
					if !bytes.Equal(ref, convergedState(tc.factory(fixed), p)) {
						diverged = true
					}
				}
				if fixed && diverged {
					t.Errorf("fixed replica states differ across delivery permutations")
				}
				if !fixed && !diverged {
					t.Errorf("seeded bug produced no divergence across %d permutations", len(perms))
				}
			}
		})
	}
}
