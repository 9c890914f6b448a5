// Command mcheck is the model checker (the MaceMC-equivalent baseline): it
// explores a registered scenario from its initial state with exhaustive
// search or consequence prediction, and reports any safety violations it
// finds with their event paths.
//
// Usage:
//
//	mcheck -list
//	mcheck -service randtree -nodes 5 -mode exhaustive -maxdepth 8
//	mcheck -service chord -mode consequence -resets=false -states 200000
//	mcheck -service bulletprime -nodes 3 -mode exhaustive -states 50000
//	mcheck -service paxos -mode exhaustive -reduce=false
//	mcheck -service chord -mode exhaustive -shards 4 -maxdepth 6
//
// The search checks the scenario's own fault model (scenario.Faults): -resets
// and -connbreaks override it only when they are given.
//
// -shards N runs the sharded search (see internal/dist): N shards, each a
// goroutine of this process, own a slice of the fingerprint space and
// exchange out-of-range successors in batches through a coordinator.
// Exhaustive mode only; the claimed state set is identical to the
// single-process engine's. A shard failure is a bug, and the run fails
// with an error naming the shard and the cause.
//
// -reduce (default on) runs the sleep-set partial-order reduction: the
// search claims the same states and reports the same violations while
// executing fewer handler calls. Turn it off to measure the unreduced
// transition count or when instrumenting message-arrival order itself.
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering exactly
// the search (not scenario set-up or result printing), so a real-size run
// can be profiled without a throw-away main:
//
//	mcheck -service paxos -mode exhaustive -maxdepth 6 -workers 1 -memprofile mem.prof
//	go tool pprof -sample_index=alloc_space -top mcheck mem.prof
//
// A command-line mistake exits 2; a run that started and failed exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
	"crystalball/internal/profile"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

func main() {
	var (
		service    = flag.String("service", "randtree", "scenario to check (see -list)")
		list       = flag.Bool("list", false, "list registered scenarios and exit")
		variant    = flag.String("variant", "", "scenario variant (e.g. paxos: bug1|bug2)")
		nodes      = flag.Int("nodes", 5, "number of nodes in the initial state")
		mode       = flag.String("mode", "consequence", "search mode (exhaustive|consequence)")
		maxDepth   = flag.Int("maxdepth", 0, "depth bound (0 = unbounded)")
		maxStates  = flag.Int("states", 500000, "states to check")
		maxWall    = flag.Duration("wall", time.Minute, "wall-clock budget")
		resets     = flag.Bool("resets", false, "explore node resets (default: the scenario's fault model)")
		connBreaks = flag.Bool("connbreaks", false, "explore spontaneous connection breaks (default: the scenario's fault model)")
		reduce     = flag.Bool("reduce", true, "sleep-set partial-order reduction (same states and violations, fewer transitions)")
		maxViol    = flag.Int("violations", 3, "stop after this many violations")
		workers    = flag.Int("workers", 0, "exploration worker goroutines (0 = GOMAXPROCS; per shard with -shards, 0 = 1)")
		seed       = flag.Int64("seed", 1, "random seed")
		fixed      = flag.Bool("fixed", false, "check the bug-fixed service variants")
		shards     = flag.Int("shards", 0, "sharded search over this many in-process shards (0 = single engine; exhaustive mode only)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the search to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile of the search to this file")
	)
	flag.Parse()

	if *list {
		for _, name := range scenario.Names() {
			sc, _ := scenario.Lookup(name)
			fmt.Printf("%-12s %s\n", name, sc.Description)
		}
		return
	}

	sc, ok := scenario.Lookup(*service)
	if !ok {
		usage(fmt.Errorf("unknown service %q (registered: %s)", *service, strings.Join(scenario.Names(), ", ")))
	}

	var m mc.Mode
	switch *mode {
	case "exhaustive":
		m = mc.Exhaustive
	case "consequence":
		m = mc.Consequence
	default:
		usage(fmt.Errorf("unknown mode %q", *mode))
	}
	if *shards > 0 && m != mc.Exhaustive {
		usage(fmt.Errorf("-shards requires -mode exhaustive"))
	}

	g, cfg, err := sc.InitialState(scenario.Options{Nodes: *nodes, Fixed: *fixed, Variant: *variant})
	if err != nil {
		usage(err)
	}
	cfg.Seed = *seed
	// The fault model is the scenario's unless a flag spells it.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "resets":
			cfg.ExploreResets = *resets
		case "connbreaks":
			cfg.ExploreConnBreaks = *connBreaks
		}
	})
	cfg.Mode = m
	cfg.Budget = mc.Budget{
		States:     *maxStates,
		Depth:      *maxDepth,
		Wall:       *maxWall,
		Violations: *maxViol,
		Workers:    *workers,
	}
	cfg.Reduce = *reduce

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		usage(err)
	}
	var res *mc.Result
	var dres *dist.Result
	if *shards > 0 {
		dres, err = dist.Local(dist.LocalConfig{
			Shards: *shards,
			Search: cfg,
			Root:   g,
		})
	} else {
		res = mc.NewSearch(cfg).Run(g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if dres != nil {
		res = &dres.Checker
	}

	fmt.Printf("mode=%s service=%s nodes=%d workers=%d\n", m, sc.Name, *nodes, res.Workers)
	fmt.Printf("states=%d transitions=%d depth=%d elapsed=%v mem=%dB (%.0f B/state) states/sec=%.0f stop=%s\n",
		res.StatesExplored, res.Transitions, res.MaxDepthReached, res.Elapsed.Round(time.Millisecond),
		res.PeakMemoryBytes, res.PerStateBytes,
		float64(res.StatesExplored)/res.Elapsed.Seconds(), res.StopReason)
	fmt.Printf("pruned=%d (sleep-hits=%d) unbuilt=%d\n", res.TransitionsPruned, res.SleepHits, res.Unbuilt)
	fmt.Printf("handlers=%d\n", res.HandlerRuns)
	if dres != nil {
		fmt.Printf("shards=%d forwarded=%d received=%d remote-deduped=%d batch-flushes=%d\n",
			*shards, dres.Stats.StatesForwarded, dres.Stats.StatesReceived, dres.Stats.RemoteDeduped, dres.Stats.BatchFlushes)
	}
	if len(res.Violations) == 0 {
		fmt.Println("no violations found")
		return
	}
	for i, v := range res.Violations {
		fmt.Printf("violation %d: %v at depth %d\n", i+1, v.Properties, v.Depth)
		for _, ev := range v.Path {
			fmt.Printf("  %s\n", ev.Describe())
		}
	}
}

// usage reports a command-line mistake and exits 2; failures of a run that
// started exit 1.
func usage(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
