package dist

// Credit-counted quiescence detection, the hub variant of Safra-style
// termination counting. Classic Safra circulates a token accumulating
// send/receive counts because no process sees global traffic; here the
// star topology means the coordinator relays — and therefore counts —
// every batch itself, so no probe rounds are needed.
//
// The coordinator keeps, per shard i, the number of batches it has relayed
// *to* i this round. A shard sends Idle{Received: r} after every drain,
// where r counts the batches it has processed. Shard i is settled when its
// latest Idle matches the relay count exactly and nothing was relayed to it
// since. The round is quiescent — the coordinator's relay wait ends — when
// every shard is settled:
//
//   - settled(i) means shard i has processed every batch the coordinator
//     ever sent it (credits repaid) and, having sent Idle after that
//     processing, has drained its frontier and flushed its outgoing
//     batches on the same FIFO connection *before* the Idle — so any batch
//     it generated has already reached the coordinator and bumped some
//     relay count, un-settling the destination.
//   - hence all settled ⇒ no batch is queued at any shard, in flight in
//     either direction, or pending relay ⇒ no shard can ever become
//     non-idle again. The round has terminated.
//
// Correctness leans only on per-connection FIFO order (the pipe provides
// it) and on every batch being hub-relayed (the topology).
type quiescence struct {
	relayed []int64 // batches relayed to shard i this round
	settled []bool  // shard i's latest Idle matched relayed[i]
}

func newQuiescence(shards int) *quiescence {
	return &quiescence{
		relayed: make([]int64, shards),
		settled: make([]bool, shards),
	}
}

// relay records a batch relayed to shard `to`, un-settling it until a fresh
// matching Idle arrives.
func (q *quiescence) relay(to int) {
	q.relayed[to]++
	q.settled[to] = false
}

// idle folds shard i's idle report in. A stale report (received below the
// relay count) leaves the shard unsettled; an overshoot is a protocol bug.
func (q *quiescence) idle(shard int, received int64) error {
	if received > q.relayed[shard] {
		return errorf("shard %d reports %d batches received, only %d relayed", shard, received, q.relayed[shard])
	}
	q.settled[shard] = received == q.relayed[shard]
	return nil
}
