package dist

import (
	"reflect"
	"strings"
	"testing"
)

func TestFaultSpecParse(t *testing.T) {
	p, err := ParseFaultPlan("seed=9, kill@s1r1m2, send:dup@s0r1m3, drop@s1~0.05, delay3@s0r2m1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Errorf("seed = %d, want 9", p.Seed)
	}
	if got := p.TargetedShards(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("targeted shards = %v, want [0 1]", got)
	}
	if p.Rules(0) != 2 || p.Rules(1) != 2 || p.Rules(7) != 0 {
		t.Errorf("rule counts: s0=%d s1=%d s7=%d", p.Rules(0), p.Rules(1), p.Rules(7))
	}
	want := []faultRule{
		{dir: dirRecv, op: opKill, shard: 1, round: 1, count: 2},
		{dir: dirSend, op: opDup, shard: 0, round: 1, count: 3},
		{dir: dirRecv, op: opDrop, shard: 1, prob: 0.05},
		{dir: dirRecv, op: opDelay, hold: 3, shard: 0, round: 2, count: 1},
	}
	if !reflect.DeepEqual(p.rules, want) {
		t.Errorf("rules = %+v\nwant %+v", p.rules, want)
	}

	// An empty spec is a valid no-rule plan, and sever aliases kill.
	if p, err := ParseFaultPlan(""); err != nil || len(p.rules) != 0 {
		t.Errorf("empty spec: %v, %+v", err, p)
	}
	if p := MustFaultPlan("sever@s0m1"); p.rules[0].op != opKill {
		t.Errorf("sever did not alias kill: %+v", p.rules[0])
	}

	for _, bad := range []string{
		"kill",           // no target
		"explode@s0m1",   // unknown op
		"delay@s0m1",     // delay without hold count
		"delay0@s0m1",    // non-positive hold
		"drop@x1m1",      // target must start with s
		"drop@s0",        // neither count nor probability
		"drop@s0m0",      // counts are 1-based
		"drop@s0r0m1",    // rounds are 1-based
		"drop@s0~2",      // probability out of range
		"drop@s0~NaN",    // NaN is not in [0, 1], though no comparison says so
		"drop@s-1m1",     // negative shard
		"seed=banana",    // unparsable seed
		"kill@s1r1m2 m3", // trailing junk
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// FuzzParseFaultPlan: the -faults grammar is typed by users, so the parser
// never panics and what it accepts is in range — every probability in [0, 1],
// every delay hold positive, every shard non-negative.
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"seed=9, kill@s1r1m2, send:dup@s0r1m3, drop@s1~0.05, delay3@s0r2m1",
		"", "sever@s0m1", "recv:corrupt@s0r1m1", "send:drop@s0~0.01",
		"kill", "explode@s0m1", "delay0@s0m1", "drop@s0~2", "drop@s0~NaN", "drop@s-1m1", "seed=banana",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		for _, r := range p.rules {
			if !(r.prob >= 0 && r.prob <= 1) || r.shard < 0 || (r.op == opDelay && r.hold <= 0) {
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
	w := MustFaultPlan(spec).Wrap(shard, a)
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

func TestFaultSendDupDropDelay(t *testing.T) {
	// dup: the 1st counted send goes out twice.
	w, b := faultPair(t, "send:dup@s0m1", 0)
	if err := w.Send(Idle{Shard: 0, Received: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if m, err := b.Recv(); err != nil || m != (Idle{Shard: 0, Received: 1}) {
			t.Fatalf("dup copy %d: %v %v", i, m, err)
		}
	}

	// drop: the 1st counted send vanishes, the 2nd passes.
	w, b = faultPair(t, "send:drop@s0m1", 0)
	mustSend(t, w, Idle{Shard: 0, Received: 1})
	mustSend(t, w, Idle{Shard: 0, Received: 2})
	if m, err := b.Recv(); err != nil || m != (Idle{Shard: 0, Received: 2}) {
		t.Fatalf("after drop got %v, %v", m, err)
	}

	// delay2: message 1 is held behind the next two, so arrival order is
	// 2, 3, 1.
	w, b = faultPair(t, "send:delay2@s0m1", 0)
	for r := int64(1); r <= 3; r++ {
		mustSend(t, w, Idle{Shard: 0, Received: r})
	}
	var got []int64
	for i := 0; i < 3; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.(Idle).Received)
	}
	if !reflect.DeepEqual(got, []int64{2, 3, 1}) {
		t.Errorf("delayed order = %v, want [2 3 1]", got)
	}
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
	// count: the state loses its path and its fingerprint flips.
	w, b = faultPair(t, "corrupt@s0m1", 0)
	mustSend(t, b, Idle{Shard: 0, Received: 1})
	if m, err := w.Recv(); err != nil || m != (Idle{Shard: 0, Received: 1}) {
		t.Fatalf("corrupt fired on a non-batch: %v %v", m, err)
	}
	orig := Batch{From: 0, To: 0, States: []ForwardState{{Hash: 0x10, Depth: 2, Path: []EventDesc{{Kind: 'R', Node: 1}}}}}
	mustSend(t, b, orig)
	m, err := w.Recv()
	if err != nil {
		t.Fatal(err)
	}
	cb := m.(Batch)
	if cb.States[0].Path != nil || cb.States[0].Hash == orig.States[0].Hash || cb.States[0].Depth != 2 {
		t.Errorf("corrupted state = %+v", cb.States[0])
	}
	if orig.States[0].Path == nil {
		t.Errorf("corruption mutated the sender's batch")
	}
}

// TestFaultRoundScopingAndReset pins the determinism contract: counts are
// per-round (a RoundStart — including a retry's — resets them), rules
// scoped to round r fire only there, and a counted rule fires once per
// session even if its trigger recurs.
func TestFaultRoundScopingAndReset(t *testing.T) {
	w, b := faultPair(t, "send:drop@s0r2m1", 0)
	mustSend(t, w, Idle{Shard: 0, Received: 1}) // round 1: rule dormant
	mustSend(t, w, RoundStart{Round: 2, Slot: 0, Slots: 1})
	mustSend(t, w, Idle{Shard: 0, Received: 2}) // round 2 msg 1: dropped
	mustSend(t, w, Idle{Shard: 0, Received: 3}) // spent: passes
	mustSend(t, w, RoundStart{Round: 2, Slot: 0, Slots: 1})
	mustSend(t, w, Idle{Shard: 0, Received: 4}) // retry msg 1: rule already spent
	var got []int64
	for i := 0; i < 5; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if id, ok := m.(Idle); ok {
			got = append(got, id.Received)
		}
	}
	if !reflect.DeepEqual(got, []int64{1, 3, 4}) {
		t.Errorf("delivered %v, want [1 3 4]", got)
	}
}

// TestFaultProbDeterminism pins that probabilistic rules draw from the
// seeded per-(shard, direction) stream: two identically-armed connections
// produce the identical drop pattern.
func TestFaultProbDeterminism(t *testing.T) {
	pattern := func() []int64 {
		w, b := faultPair(t, "seed=7, send:drop@s2~0.4", 2)
		const n = 24
		for r := int64(1); r <= n; r++ {
			mustSend(t, w, Idle{Shard: 0, Received: r})
		}
		// RoundStart is the one message a plan never faults, so it is a
		// safe end-of-stream sentinel even under a probabilistic drop.
		mustSend(t, w, RoundStart{Round: 2, Slot: 0, Slots: 1})
		var got []int64
		for {
			m, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if _, done := m.(RoundStart); done {
				return got
			}
			got = append(got, m.(Idle).Received)
		}
	}
	first := pattern()
	if len(first) == 0 || len(first) == 24 {
		t.Fatalf("drop pattern degenerate: %d of 24 delivered", len(first))
	}
	if again := pattern(); !reflect.DeepEqual(first, again) {
		t.Errorf("same seed produced different drop patterns:\n%v\n%v", first, again)
	}
}

func mustSend(t *testing.T, c Conn, m Msg) {
	t.Helper()
	if err := c.Send(m); err != nil {
		t.Fatalf("send %T: %v", m, err)
	}
}
