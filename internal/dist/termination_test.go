package dist

import (
	"slices"
	"testing"
)

// quiescent is the coordinator's relay-phase exit: no slot is still
// pending, i.e. every shard is settled.
func (q *quiescence) quiescent() bool { return !slices.Contains(q.settled, false) }

// Credit-counting edge cases for the quiescence check: relays landing
// after a sender's idle, repeated idles, and stale idles racing fresh
// relays.

// TestQuiescenceBatchAfterIdle: a shard that has idled is un-settled the
// moment another batch is relayed to it, and the round must not end until
// it repays the new credit.
func TestQuiescenceBatchAfterIdle(t *testing.T) {
	q := newQuiescence(2)
	if err := q.idle(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.idle(1, 0); err != nil {
		t.Fatal(err)
	}
	if !q.quiescent() {
		t.Fatalf("both shards idle with no relays: should be quiescent")
	}
	q.relay(0)
	if q.quiescent() {
		t.Fatalf("relay after idle did not un-settle the destination")
	}
	if err := q.idle(0, 1); err != nil {
		t.Fatal(err)
	}
	if !q.quiescent() {
		t.Fatalf("repaid credit did not settle the shard")
	}
}

// TestQuiescenceDuplicateIdle: an idle report repeated with no relay in
// between matches the relay count again, so it is harmless and keeps the
// shard settled.
func TestQuiescenceDuplicateIdle(t *testing.T) {
	q := newQuiescence(1)
	q.relay(0)
	for i := 0; i < 2; i++ {
		if err := q.idle(0, 1); err != nil {
			t.Fatalf("duplicate idle %d: %v", i, err)
		}
		if !q.quiescent() {
			t.Fatalf("duplicate idle %d un-settled the shard", i)
		}
	}
}

// TestQuiescenceStaleIdle: an idle that has not caught up with the relay
// count leaves the shard unsettled — it is a report from before the last
// relay, not evidence of quiescence.
func TestQuiescenceStaleIdle(t *testing.T) {
	q := newQuiescence(1)
	q.relay(0)
	q.relay(0)
	if err := q.idle(0, 1); err != nil {
		t.Fatal(err)
	}
	if q.quiescent() {
		t.Fatalf("stale idle settled the shard with a credit outstanding")
	}
	if err := q.idle(0, 2); err != nil {
		t.Fatal(err)
	}
	if !q.quiescent() {
		t.Fatalf("caught-up idle did not settle the shard")
	}
}

// TestQuiescenceOvershoot: a shard claiming more batches than were ever
// relayed to it is a protocol violation (or a corrupt frame that slipped
// through), never a quiescence state.
func TestQuiescenceOvershoot(t *testing.T) {
	q := newQuiescence(1)
	q.relay(0)
	if err := q.idle(0, 2); err == nil {
		t.Fatalf("overshoot accepted")
	}
	if q.quiescent() {
		t.Fatalf("overshoot settled the shard")
	}
}
