// Command experiments regenerates every table and figure of the
// CrystalBall paper's evaluation (section 5) on the simulated substrate.
//
// Usage:
//
//	experiments -exp all                 # everything, default scales
//	experiments -exp fig14 -runs 100     # Figure 14 at paper scale
//	experiments -exp table1 -duration 30m
//
// -h lists the experiment ids. A zero -nodes, -duration, -depth or
// -budget takes each experiment's default. -cpuprofile and -memprofile
// write runtime/pprof profiles covering the experiments run (not flag
// parsing):
//
//	experiments -exp depths -workers 1 -budget 300ms -cpuprofile cpu.prof
//	go tool pprof -top experiments cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"crystalball/internal/experiments"
	"crystalball/internal/profile"
)

func main() {
	var ids []string
	for _, e := range experiments.Experiments {
		ids = append(ids, e.ID)
	}
	var p experiments.Params
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(ids, "|")+"|all)")
	flag.Int64Var(&p.Seed, "seed", 42, "root random seed")
	flag.IntVar(&p.Runs, "runs", 30, "runs per bug for fig14 (paper: 100)")
	flag.IntVar(&p.Nodes, "nodes", 0, "node count override (0 = experiment default)")
	flag.DurationVar(&p.Duration, "duration", 0, "virtual duration override")
	flag.IntVar(&p.Depth, "depth", 0, "max depth for fig12/fig15")
	flag.DurationVar(&p.Budget, "budget", 0, "wall budget per search for fig12 (default 30s) and depths (default 2s)")
	flag.IntVar(&p.Workers, "workers", 0, "checker worker goroutines (0 = GOMAXPROCS)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
	memProf := flag.String("memprofile", "", "write an allocation profile of the experiments to this file")
	flag.Parse()
	if *exp != "all" && !slices.Contains(ids, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	code := 0
	for _, e := range experiments.Experiments {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		if *exp == "all" {
			fmt.Printf("### %s\n", e.ID)
		}
		out, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			code = 1
			break
		}
		fmt.Println(out)
	}
	// The profiles are written before the exit, which would lose them.
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
