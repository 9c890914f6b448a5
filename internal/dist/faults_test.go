package dist

import (
	"reflect"
	"strings"
	"testing"

	"crystalball/internal/mc"
)

func TestFaultSpecParse(t *testing.T) {
	p, err := ParseFaultPlan("kill@s1r1m2, send:sever@s1r1m1, corrupt@s0m3")
	if err != nil {
		t.Fatal(err)
	}
	want := []faultRule{
		{dir: dirRecv, op: opKill, shard: 1, round: 1, count: 2},
		{dir: dirSend, op: opKill, shard: 1, round: 1, count: 1},
		{dir: dirRecv, op: opCorrupt, shard: 0, count: 3},
	}
	if !reflect.DeepEqual(p.rules, want) {
		t.Errorf("rules = %+v\nwant %+v", p.rules, want)
	}

	// An empty spec is a valid no-rule plan, and a plan wraps only the
	// shards its rules name.
	if p, err := ParseFaultPlan(""); err != nil || len(p.rules) != 0 {
		t.Errorf("empty spec: %v, %+v", err, p)
	}
	if a, _ := Pipe(); p.Wrap(7, a) != a {
		t.Errorf("a plan without rules for shard 7 wrapped its connection")
	}

	for _, bad := range []string{
		"kill",           // no target
		"explode@s0m1",   // unknown op
		"drop@s0m1",      // removed op
		"dup@s0m1",       // removed op
		"delay3@s0m1",    // removed op
		"kill@s0~0.5",    // probabilistic rules are gone
		"seed=9",         // and so is their seed
		"kill@x1m1",      // target must start with s
		"kill@s0",        // no count
		"kill@s0m0",      // counts are 1-based
		"kill@s0r0m1",    // rounds are 1-based
		"kill@s-1m1",     // negative shard
		"kill@s1r1m2 m3", // trailing junk
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// FuzzParseFaultPlan: the -faults grammar is typed by users, so the parser
// never panics and what it accepts is in range — only kill or corrupt
// rules, each with a positive count, a non-negative shard and a
// non-negative round (0 = any).
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"kill@s1r1m2, send:sever@s1r1m1, corrupt@s1r1m1",
		"", "sever@s0m1", "recv:corrupt@s0r1m1",
		"kill", "explode@s0m1", "kill@s-1m1",
		// Removed from the grammar: each must be rejected.
		"seed=9, kill@s1r1m2, send:dup@s0r1m3, drop@s1~0.05, delay3@s0r2m1",
		"send:drop@s0~0.01", "delay0@s0m1", "drop@s0~NaN", "seed=banana",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		for _, r := range p.rules {
			if (r.op != opKill && r.op != opCorrupt) || r.count < 1 || r.shard < 0 || r.round < 0 {
				t.Fatalf("spec %q accepted as %+v", spec, r)
			}
		}
	})
}

// faultPair wires a plan-wrapped end a (as shard `shard`) to a bare end b,
// with the per-round counters armed by a RoundStart.
func faultPair(t *testing.T, spec string, shard int) (wrapped, peer Conn) {
	t.Helper()
	a, b := Pipe()
	plan, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := plan.Wrap(shard, a)
	if w == a {
		t.Fatalf("plan %q did not wrap shard %d", spec, shard)
	}
	if err := w.Send(RoundStart{Round: 1, Slot: 0, Slots: 1, RecordStates: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	return w, b
}

func TestFaultRecvKillAndCorrupt(t *testing.T) {
	// kill severs the connection at the triggering receive.
	w, b := faultPair(t, "kill@s3m1", 3)
	mustSend(t, b, Idle{Shard: 0, Received: 1})
	if _, err := w.Recv(); err == nil || !strings.Contains(err.Error(), "fault injection") {
		t.Fatalf("kill did not sever: %v", err)
	}
	if err := b.Send(Idle{Shard: 0, Received: 2}); err == nil {
		t.Errorf("peer can still send after sever")
	}

	// corrupt skips non-batches and mangles the first batch at-or-after its
	// count: the state is dropped and its fingerprint flips.
	w, b = faultPair(t, "corrupt@s0m1", 0)
	mustSend(t, b, Idle{Shard: 0, Received: 1})
	if m, err := w.Recv(); err != nil || m != (Idle{Shard: 0, Received: 1}) {
		t.Fatalf("corrupt fired on a non-batch: %v %v", m, err)
	}
	orig := Batch{From: 0, To: 0, States: []ForwardState{{Hash: 0x10, Depth: 2, fwd: mc.Forward{State: mc.NewGState(), Depth: 2}}}}
	mustSend(t, b, orig)
	m, err := w.Recv()
	if err != nil {
		t.Fatal(err)
	}
	cb := m.(Batch)
	if cb.States[0].fwd.State != nil || cb.States[0].Hash == orig.States[0].Hash || cb.States[0].Depth != 2 {
		t.Errorf("corrupted state = %+v", cb.States[0])
	}
	if orig.States[0].fwd.State == nil {
		t.Errorf("corruption mutated the sender's batch")
	}
}

// TestFaultRoundScopingAndReset pins the determinism contract: a rule
// scoped to round r never fires in another round, and counts are per-round
// (a RoundStart resets them), so m1 of round 2 is the first message after
// round 2's start however many round 1 carried.
func TestFaultRoundScopingAndReset(t *testing.T) {
	w, b := faultPair(t, "send:sever@s0r2m1", 0)
	mustSend(t, w, Idle{Shard: 0, Received: 1}) // round 1 msg 1: rule dormant
	mustSend(t, w, Idle{Shard: 0, Received: 2}) // round 1 msg 2
	mustSend(t, w, RoundStart{Round: 2, Slot: 0, Slots: 1})
	if err := w.Send(Idle{Shard: 0, Received: 3}); err == nil || !strings.Contains(err.Error(), "round 2") {
		t.Fatalf("round 2 msg 1 did not sever: %v", err)
	}
	var got []Msg
	for {
		m, err := b.Recv()
		if err != nil {
			break
		}
		got = append(got, m)
	}
	want := []Msg{Idle{Shard: 0, Received: 1}, Idle{Shard: 0, Received: 2}, RoundStart{Round: 2, Slot: 0, Slots: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
}

func mustSend(t *testing.T, c Conn, m Msg) {
	t.Helper()
	if err := c.Send(m); err != nil {
		t.Fatalf("send %T: %v", m, err)
	}
}
