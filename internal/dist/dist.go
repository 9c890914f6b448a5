// Package dist is the sharded state-space search: the protocol that lets
// several ranges of the one search engine (mc.Engine) run as goroutines of
// one process (mcheck -shards). It declares no search loop of its own.
//
// The fingerprint space is partitioned by hash range (mc.ShardRange). Each
// shard drives one mc.Engine restricted to the range it owns: the engine
// expands and claims exactly as Search.Run's does, hands every proposed
// successor outside the range to the shard's sink — which accumulates
// per-owner batches and forwards them over an in-process pipe (Pipe) — and
// between depth buckets lets the shard flush batches and inject the
// arrivals queued meanwhile. What lives here is protocol: rounds, budgets
// and the merged stop reason (coordinator.go), the batch/idle/report
// messages (transport.go), forwarding (shard.go) and quiescence
// (termination.go). A shard is a goroutine on an in-process pipe, so it
// cannot fail alone: any shard failure is a bug, and it ends the round with
// an error naming the shard and the cause (coordinator.go).
//
// All traffic flows through the coordinator hub (a star topology):
// shard-to-shard batches are relayed by the coordinator, which lets it run
// a credit-counted quiescence check — every relayed batch is a credit that
// the destination shard repays in its next idle report, so a round
// terminates the moment all credits are repaid and every shard is drained,
// with no global barrier per BFS level.
//
// Without that barrier a state can arrive from a remote shard at any depth,
// including a smaller depth than it was first claimed at. The engine
// therefore keeps visited as fingerprint → minimal claimed depth and
// re-expands a state whenever it re-arrives strictly shallower, which
// restores exactly the subtree a depth-bounded BFS would have explored. The
// claimed-state set of a depth-bounded distributed round is consequently
// identical to the single-process search's at any shard and worker count
// (the differential oracle in internal/scenario pins this), while expansion
// *counts* (transitions, re-expansions) are scheduling telemetry.
//
// Scope: distributed rounds run Exhaustive mode with Reduce forced off,
// because the other two rules need claims that cross shards. Consequence
// prediction prunes by a global (node, local state) table — the first state
// to reach a local state expands its internal actions, all later ones prune
// — and a per-shard table makes every shard its own "first". The sleep-set
// reduction intersects the sleep sets of same-level duplicate proposals at
// the claim barrier; duplicates claimed on different shards have no common
// barrier. Both are questions for the shared core now, not for a second
// engine.
package dist

import "fmt"

// Stats counts one shard's frontier-exchange traffic; the coordinator sums
// them into the round's totals.
type Stats struct {
	// StatesForwarded counts successors handed to a remote owner shard.
	StatesForwarded int64
	// StatesReceived counts states that arrived from remote shards.
	StatesReceived int64
	// RemoteDeduped counts received states the owner had already claimed
	// at an equal or smaller depth — the cross-shard duplicate work the
	// sender-side forward cache could not see.
	RemoteDeduped int64
	// BatchFlushes counts outgoing batch sends (full batches plus the
	// end-of-drain flushes).
	BatchFlushes int64
}

// add folds another shard's counters in.
func (s *Stats) add(o Stats) {
	s.StatesForwarded += o.StatesForwarded
	s.StatesReceived += o.StatesReceived
	s.RemoteDeduped += o.RemoteDeduped
	s.BatchFlushes += o.BatchFlushes
}

// RecoveryStats is what a round recovered from, which is nothing: a shard
// failure ends the round with an error (Coordinator). Retries is always 0
// and SerialFallback always false; they and String remain because the
// benchmark harness (bench/sharded.go) reads them and its tests write
// Retries, and only a change to the benchmark may drop them.
type RecoveryStats struct {
	Retries        int
	SerialFallback bool
}

// String renders the telemetry, e.g. "retries=0".
func (r RecoveryStats) String() string { return fmt.Sprintf("retries=%d", r.Retries) }

// DefaultBatchSize is the forwarded-state batch flush threshold: batches
// are sent when they reach this many states (and at every drain end), so
// hub relaying amortizes over many states.
const DefaultBatchSize = 128

// errorf is fmt.Errorf with the package prefix every dist error carries.
func errorf(format string, args ...any) error {
	return fmt.Errorf("dist: "+format, args...)
}
