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
// messages (transport.go), forwarding (shard.go), quiescence
// (termination.go) and failure recovery (coordinator.go, faults.go).
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

import (
	"fmt"
	"sort"
	"strings"
)

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

// ShardDeath records one detected shard failure: which connection identity
// died, during which round and attempt (1-based within the round), and why.
// Cause is one of "conn" (a closed or failed connection), "fault" (the
// shard reported its own engine fault) or "protocol" (the shard violated
// the round protocol and was expelled).
type ShardDeath struct {
	Shard   int
	Round   int
	Attempt int
	Cause   string
}

// RecoveryStats is the fault-tolerance telemetry of one coordinator round:
// how many times the round was aborted and retried, which shards were lost
// along the way, and what the round finally ran on. With a deterministic
// fault plan and a fixed seed the whole struct — including String() — is
// byte-identical across runs, which the chaos oracle pins.
type RecoveryStats struct {
	// Retries counts aborted attempts (0 = the round succeeded first try).
	Retries int
	// Deaths lists every shard failure detected during the round, ordered
	// by attempt and then by shard index within an attempt.
	Deaths []ShardDeath
	// SerialFallback reports that every shard died and the round was
	// finished by the coordinator's floor: one in-process shard owning the
	// whole space.
	SerialFallback bool
	// FinalShards is the number of live shards the successful attempt ran
	// on (0 when SerialFallback).
	FinalShards int
}

// String renders the telemetry canonically, e.g.
// "retries=1 final=3 deaths[r2a1s0:conn]" — the byte-identical form the
// determinism tests compare.
func (r RecoveryStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "retries=%d", r.Retries)
	if r.SerialFallback {
		b.WriteString(" serial")
	}
	fmt.Fprintf(&b, " final=%d", r.FinalShards)
	if len(r.Deaths) > 0 {
		deaths := append([]ShardDeath(nil), r.Deaths...)
		sort.Slice(deaths, func(i, j int) bool {
			if deaths[i].Round != deaths[j].Round {
				return deaths[i].Round < deaths[j].Round
			}
			if deaths[i].Attempt != deaths[j].Attempt {
				return deaths[i].Attempt < deaths[j].Attempt
			}
			return deaths[i].Shard < deaths[j].Shard
		})
		b.WriteString(" deaths[")
		for i, d := range deaths {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "r%da%ds%d:%s", d.Round, d.Attempt, d.Shard, d.Cause)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// DefaultBatchSize is the forwarded-state batch flush threshold: batches
// are sent when they reach this many states (and at every drain end), so
// hub relaying amortizes over many states.
const DefaultBatchSize = 128

// errorf is fmt.Errorf with the package prefix every dist error carries.
func errorf(format string, args ...any) error {
	return fmt.Errorf("dist: "+format, args...)
}
