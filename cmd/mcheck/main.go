// Command mcheck is the offline model checker (the MaceMC-equivalent
// baseline): it explores a registered scenario from its initial state with
// exhaustive search or consequence prediction, and reports any safety
// violations it finds with their event paths.
//
// Usage:
//
//	mcheck -list
//	mcheck -service randtree -nodes 5 -mode exhaustive -maxdepth 8
//	mcheck -service chord -mode consequence -resets -states 200000
//	mcheck -service bulletprime -nodes 3 -mode exhaustive -states 50000
//	mcheck -service paxos -mode exhaustive -reduce=false
//	mcheck -service chord -mode exhaustive -shards 4 -maxdepth 6
//
// -shards N runs the distributed sharded search in-process: N shard
// goroutines each own a slice of the fingerprint space and exchange
// out-of-range successors in batches through a coordinator (see
// internal/dist). Exhaustive mode only; the claimed state set is identical
// to the single-process engine's. For a real multi-process run, use shardd.
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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
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
		maxStates  = flag.Int("states", 500000, "state budget")
		maxWall    = flag.Duration("wall", time.Minute, "wall-clock budget")
		resets     = flag.Bool("resets", true, "explore node resets")
		connBreaks = flag.Bool("connbreaks", false, "explore spontaneous connection breaks")
		reduce     = flag.Bool("reduce", true, "sleep-set partial-order reduction (same states and violations, fewer transitions)")
		maxViol    = flag.Int("violations", 3, "stop after this many violations")
		workers    = flag.Int("workers", 0, "exploration worker goroutines (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "random seed")
		fixed      = flag.Bool("fixed", false, "check the bug-fixed service variants")
		shards     = flag.Int("shards", 0, "distributed in-process search with this many shards (0 = single engine; exhaustive mode only)")
		faults     = flag.String("faults", "", "fault-plan spec for -shards, e.g. 'kill@s1r1m2, send:drop@s0~0.01' (ops: kill|sever|drop|dup|corrupt|delayN)")
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
		fmt.Fprintf(os.Stderr, "unknown service %q (registered: %s)\n",
			*service, strings.Join(scenario.Names(), ", "))
		os.Exit(2)
	}

	var m mc.Mode
	switch *mode {
	case "exhaustive":
		m = mc.Exhaustive
	case "consequence":
		m = mc.Consequence
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	g, cfg, err := sc.InitialState(scenario.Options{
		Nodes:   *nodes,
		Fixed:   *fixed,
		Variant: *variant,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Mode = m
	cfg.Budget = mc.Budget{
		States:     *maxStates,
		Depth:      *maxDepth,
		Wall:       *maxWall,
		Violations: *maxViol,
		Workers:    *workers,
	}
	cfg.ExploreResets = *resets
	cfg.ExploreConnBreaks = *connBreaks
	cfg.Reduce = *reduce
	cfg.Seed = *seed

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var res *mc.Result
	var dstats dist.Stats
	var drec dist.RecoveryStats
	if *shards > 0 {
		if m != mc.Exhaustive {
			fmt.Fprintln(os.Stderr, "-shards requires -mode exhaustive")
			os.Exit(2)
		}
		plan, err := dist.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -faults spec: %v\n", err)
			os.Exit(2)
		}
		dres, err := dist.Local(dist.LocalConfig{
			Shards: *shards,
			Search: cfg,
			Root:   g,
			Faults: plan,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res = &dres.Checker
		dstats = dres.Stats
		drec = dres.Recovery
	} else if *faults != "" {
		fmt.Fprintln(os.Stderr, "-faults requires -shards")
		os.Exit(2)
	} else {
		res = mc.NewSearch(cfg).Run(g)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("mode=%s service=%s nodes=%d workers=%d\n", m, sc.Name, *nodes, res.Workers)
	// Why the search ended; a sharded result does not say yet.
	stop := ""
	if res.StopReason != "" {
		stop = " stop=" + res.StopReason
	}
	fmt.Printf("states=%d transitions=%d depth=%d elapsed=%v mem=%dB (%.0f B/state) states/sec=%.0f%s\n",
		res.StatesExplored, res.Transitions, res.MaxDepthReached, res.Elapsed.Round(time.Millisecond),
		res.PeakMemoryBytes, res.PerStateBytes,
		float64(res.StatesExplored)/res.Elapsed.Seconds(), stop)
	fmt.Printf("pruned=%d (sleep-hits=%d) unbuilt=%d\n", res.TransitionsPruned, res.SleepHits, res.Unbuilt)
	if *shards > 0 {
		fmt.Printf("shards=%d forwarded=%d received=%d remote-deduped=%d batch-flushes=%d\n",
			*shards, dstats.StatesForwarded, dstats.StatesReceived, dstats.RemoteDeduped, dstats.BatchFlushes)
		if drec.Retries > 0 || len(drec.Deaths) > 0 || drec.SerialFallback {
			fmt.Printf("recovery: %s\n", drec.String())
		}
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

// startProfiles starts the CPU profile (when cpu names a file) and returns
// the function that stops it and writes the allocation profile (when mem
// names a file): called right before and right after the search, the two
// cover the search and nothing else.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // the profile reports allocations as of the last completed collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		return f.Close()
	}, nil
}
