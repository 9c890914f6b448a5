// Command crystalball runs a simulated CrystalBall deployment of any
// registered scenario — RandTree, Chord, Bullet′ or Paxos — with per-node
// controllers in deep-online-debugging or execution-steering mode, and
// prints the predictions, installed filters and runtime statistics.
//
// Usage:
//
//	crystalball -list
//	crystalball -service randtree -nodes 25 -mode steering -duration 10m
//	crystalball -service bulletprime -nodes 8 -mode debug -duration 20m
//
// The summary line counts the controllers' rounds: searched= those that ran
// a search (stops[…] says why each ended), skipped= those whose snapshot was
// identical to the last one searched, and pruned= the transitions their
// searches avoided (controller.Stats.TransitionsPruned, rechecks included).
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// simulated run (not deployment set-up or result printing):
//
//	crystalball -service chord -nodes 20 -mode steering -duration 60m -churn 30s -workers 1 -seed 43 -cpuprofile cpu.prof
//	go tool pprof -top crystalball cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/profile"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

func main() {
	var (
		service  = flag.String("service", "randtree", "scenario to deploy (see -list)")
		list     = flag.Bool("list", false, "list registered scenarios and exit")
		variant  = flag.String("variant", "", "scenario variant (e.g. paxos: bug1|bug2)")
		nodes    = flag.Int("nodes", 12, "number of nodes")
		mode     = flag.String("mode", "debug", "controller mode (debug|steering)")
		duration = flag.Duration("duration", 10*time.Minute, "virtual run time")
		churn    = flag.Duration("churn", time.Minute, "mean time between resets (0 = none)")
		mcStates = flag.Int("mcstates", 10000, "consequence-prediction state budget per round")
		workers  = flag.Int("workers", 0, "checker worker goroutines (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 42, "random seed")
		fixed    = flag.Bool("fixed", false, "run the bug-fixed service variants")
		verbose  = flag.Bool("v", false, "print each prediction's event path")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the run to this file")
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

	var control scenario.Control
	var ctrlMode controller.Mode
	switch *mode {
	case "debug":
		control, ctrlMode = scenario.Debug, controller.DeepOnlineDebugging
	case "steering":
		control, ctrlMode = scenario.Steering, controller.ExecutionSteering
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want debug|steering)\n", *mode)
		os.Exit(2)
	}

	d, err := sc.Deploy(scenario.DeployOptions{
		Seed:     *seed,
		Service:  scenario.Options{Nodes: *nodes, Fixed: *fixed, Variant: *variant},
		Control:  control,
		MCStates: *mcStates,
		Workers:  *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The recorder goes in before the workload so the forming overlay counts.
	truth := d.RecordGroundTruth()
	d.StartWorkload()
	if *churn > 0 {
		d.StartChurn(*churn)
	}

	fmt.Printf("running %s with %d nodes for %v (mode=%s, fixed=%v)\n",
		sc.Name, len(d.Nodes), *duration, ctrlMode, *fixed)
	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d.Sim.RunFor(*duration)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	findings := d.TotalFindings()
	distinct := controller.DistinctFindings(findings)
	fmt.Printf("\npredictions: %d total, %d distinct bug classes\n", len(findings), len(distinct))
	for _, f := range distinct {
		fmt.Printf("  %v (path length %d) at %v\n", f.Properties, len(f.Path), f.FoundAt)
		if *verbose {
			for _, ev := range f.Path {
				fmt.Printf("    %s\n", ev.Describe())
			}
		}
	}
	var filters, unhelpful, unsafe, rounds, searched, skipped, states, pruned int64
	// Why the rounds that searched stopped: stops[states=N] is how many of
	// them the state budget bound.
	stops := map[string]int64{"frontier-empty": 0, "states": 0, "violations": 0}
	for _, c := range d.Ctrls {
		filters += c.Stats.FiltersInstalled
		unhelpful += c.Stats.SteeringUnhelpful
		unsafe += c.Stats.FilterUnsafe
		rounds += c.Stats.Rounds
		skipped += c.Stats.Skipped
		states += c.Stats.StatesExplored
		pruned += c.Stats.TransitionsPruned
		for reason, n := range c.Stats.Stops {
			stops[reason] += n
			searched += n
		}
	}
	var stopText []string
	for reason, n := range stops {
		stopText = append(stopText, fmt.Sprintf("%s=%d", reason, n))
	}
	slices.Sort(stopText)
	var actions, blocked int64
	for _, node := range d.Nodes {
		actions += node.Stats.ActionsExecuted
		blocked += node.Stats.ActionsChanged()
	}
	fmt.Printf("\nrounds=%d searched=%d skipped=%d stops[%s] statesExplored=%d filtersInstalled=%d unhelpful=%d pruned=%d\n",
		rounds, searched, skipped, strings.Join(stopText, " "), states, filters, unhelpful, pruned)
	if ctrlMode == controller.ExecutionSteering {
		var atStart int // findings whose snapshot already violated
		for _, f := range findings {
			if f.Depth == 0 {
				atStart++
			}
		}
		fmt.Printf("unhelpful: filterUnsafe=%d unfilterable=%d (path length 0: %d)\n", unsafe, unhelpful-unsafe, atStart)
	}
	fmt.Printf("actions=%d blocked=%d\n", actions, blocked)
	fmt.Println(truth)
	if ok := d.Props.Holds(d.View()); ok {
		fmt.Println("final global state: consistent")
	} else {
		fmt.Printf("final global state: VIOLATES %v\n", d.Props.Check(d.View()))
	}
}
