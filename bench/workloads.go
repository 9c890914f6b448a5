package main

import (
	"time"

	"crystalball/internal/mc"
)

// kind selects which of the three pass shapes a workload runs.
type kind int

const (
	offline kind = iota // one serial mc.Search.Run per pass
	sharded             // one dist session (Pipe + RunShard + NewCoordinator) per pass
	live                // one virtual deployment driven in one-minute Sim.RunFor slices per pass
)

// size bounds one pass. Offline and sharded passes stop at the depth or
// state bound (the one that is set); a live pass runs for minutes of
// virtual time.
type size struct {
	depth   int
	states  int
	minutes int
}

// workload is one named input of the benchmark. The names are the contract
// with BENCHMARK.json; the parameters live here and nowhere else, so two
// result files with the same workload name measured the same input.
type workload struct {
	name    string
	why     string
	kind    kind
	service string
	nodes   int
	mode    mc.Mode
	full    size
	// smoke is the size the tier-1 tests run: small enough for seconds,
	// large enough that every correctness check still has something to
	// check (a violation to replay, states forwarded between shards,
	// searched controller rounds).
	smoke size
}

// Settings shared by every workload. The host has two cores: the checker
// runs one worker, the sharded search two shards of one worker each, and
// GOMAXPROCS never exceeds either the core count or two.
const (
	checkerWorkers = 1
	shardCount     = 2
	maxProcs       = 2

	liveMCStates  = 10000
	liveChurnMean = 30 * time.Second
	liveSeedBase  = 42
	liveSlice     = time.Minute
)

var workloads = []workload{
	{
		name: "paxos-exhaustive",
		why:  "wide shallow BFS with tiny handlers: state clone, message add, visited claim and sleep sets dominate; the measuring stick for state-representation and search-core changes",
		kind: offline, service: "paxos", nodes: 5, mode: mc.Exhaustive,
		full:  size{depth: 6},
		smoke: size{depth: 4},
	},
	{
		name: "paxos-consequence",
		why:  "the paper's own algorithm from the same start state: five transitions per claimed state, so handler, clone and the local-prune set do the work and visited claims little",
		kind: offline, service: "paxos", nodes: 5, mode: mc.Consequence,
		full:  size{states: 150000},
		smoke: size{states: 3000},
	},
	{
		name: "bullet-exhaustive",
		why:  "big per-node state and a deep narrow search: service clone and state encode dominate while global-structure costs are small; the only offline workload whose violations must replay",
		kind: offline, service: "bulletprime", nodes: 3, mode: mc.Exhaustive,
		full:  size{states: 100000},
		smoke: size{states: 4000},
	},
	{
		name: "chord-sharded",
		why:  "the same exhaustive search split over two loopback shards and checked against a serial reference: batch exchange, forwarding, remote dedup and quiescence that no other workload touches",
		kind: sharded, service: "chord", nodes: 6, mode: mc.Exhaustive,
		full:  size{depth: 10},
		smoke: size{depth: 6},
	},
	{
		name: "chord-live-steering",
		why:  "the whole live stack (snapshot, controller, runtime over sim and simnet) for one virtual hour: the checker runs as thousands of small cold rounds, so per-round set-up cost dominates",
		kind: live, service: "chord", nodes: 20, mode: mc.Consequence,
		full:  size{minutes: 60},
		smoke: size{minutes: 4},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
