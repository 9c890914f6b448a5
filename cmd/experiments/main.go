// Command experiments regenerates every table and figure of the
// CrystalBall paper's evaluation (section 5) on the simulated substrate.
//
// Usage:
//
//	experiments -exp all                 # everything, default scales
//	experiments -exp fig14 -runs 100     # Figure 14 at paper scale
//	experiments -exp table1 -duration 30m
//
// Experiments: table1, fig12, fig15, fig16, depths, randtree-steering,
// fig14, fig17, overhead, all.
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// experiments run (not flag parsing):
//
//	experiments -exp depths -workers 1 -budget 300ms -cpuprofile cpu.prof
//	go tool pprof -top experiments cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crystalball/internal/experiments"
	"crystalball/internal/profile"
)

// render turns a harness's (result, error) into its table, formatting only a
// result that exists.
func render[T any](format func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return format(v), nil
	}
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1|fig12|fig15|fig16|depths|randtree-steering|fig14|fig17|overhead|all)")
		seed     = flag.Int64("seed", 42, "root random seed")
		runs     = flag.Int("runs", 30, "runs per bug for fig14 (paper: 100)")
		nodes    = flag.Int("nodes", 0, "node count override (0 = experiment default)")
		duration = flag.Duration("duration", 0, "virtual duration override")
		depth    = flag.Int("depth", 0, "max depth for fig12/fig15")
		budget   = flag.Duration("budget", 2*time.Second, "wall budget for the depths comparison")
		workers  = flag.Int("workers", 0, "checker worker goroutines (0 = GOMAXPROCS)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the experiments to this file")
	)
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// exit ends the run with code after writing the profiles, which would
	// otherwise be lost with the process.
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = max(code, 1)
		}
		os.Exit(code)
	}

	run := func(name string) {
		var out string
		var err error
		switch name {
		case "table1":
			cfg := experiments.Table1Config{Seed: *seed, Nodes: *nodes, Duration: *duration, Workers: *workers}
			out, err = render(experiments.FormatTable1)(experiments.Table1(cfg))
		case "fig12":
			cfg := experiments.Fig12Config{Seed: *seed, MaxDepth: *depth, MaxStates: 2_000_000, MaxWall: 30 * time.Second, Workers: *workers}
			out, err = render(func(pts []experiments.DepthPoint) string {
				return experiments.FormatDepthPoints("Figure 12: exhaustive search time vs depth (RandTree, 5 nodes)", pts)
			})(experiments.Fig12Exhaustive(cfg))
		case "fig15", "fig16":
			cfg := experiments.Fig15Config{Seed: *seed, MaxDepth: *depth, MaxStates: 2_000_000, Workers: *workers}
			pts := experiments.Fig15Memory(cfg)
			out = experiments.FormatDepthPoints("Figures 15/16: consequence-prediction memory vs depth", pts)
		case "depths":
			counts := []int{5, 20}
			if *nodes > 0 {
				counts = []int{*nodes}
			}
			out, err = render(func(rows []experiments.DepthBudgetRow) string {
				return experiments.FormatDepthComparison(rows, *budget)
			})(experiments.DepthComparison(*seed, *budget, counts, *workers))
		case "randtree-steering":
			cfg := experiments.SteeringConfig{Seed: *seed, Nodes: *nodes, Duration: *duration, Workers: *workers}
			var results []experiments.SteeringResult
			for _, arm := range []experiments.SteeringMode{experiments.NoProtection, experiments.ISCOnly, experiments.SteeringAndISC} {
				var res experiments.SteeringResult
				if res, err = experiments.RandTreeSteering(cfg, arm); err != nil {
					break
				}
				results = append(results, res)
			}
			out = experiments.FormatSteering(results)
		case "fig14":
			cfg := experiments.Fig14Config{Seed: *seed, Runs: *runs, Workers: *workers}
			out, err = render(experiments.FormatFig14)(experiments.Fig14Paxos(cfg))
		case "fig17":
			cfg := experiments.Fig17Config{Seed: *seed, Nodes: *nodes, Deadline: *duration, Workers: *workers}
			out, err = render(experiments.FormatFig17)(experiments.Fig17Bullet(cfg))
		case "overhead":
			cfg := experiments.OverheadConfig{Seed: *seed, Nodes: *nodes, Duration: *duration, Workers: *workers}
			out, err = render(experiments.FormatOverhead)(experiments.Overhead(cfg))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit(1)
		}
		fmt.Println(out)
	}

	if *exp == "all" {
		for _, name := range []string{"fig12", "fig15", "depths", "table1",
			"randtree-steering", "fig14", "fig17", "overhead"} {
			fmt.Printf("### %s\n", name)
			run(name)
		}
	} else {
		run(*exp)
	}
	exit(0)
}
