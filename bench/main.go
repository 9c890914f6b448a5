// Command bench is the repository's benchmark: five named workloads at the
// size people actually run the checker and the live stack, every metric
// printed by name with its unit, outputs checked differentially, and — in a
// separate traced run — cost attributed to each module from outside, by
// timing calls into the modules' public functions. See README.md.
//
// Usage:
//
//	go run ./bench                                   every workload, untraced
//	go run ./bench -trace 1                          every workload, traced (per-layer table)
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                                 one run in this process; the last line is its JSON result
//	go run ./bench -runs 10 -outdir bench/out/a      ten seeds per workload into bench/out/a/result.json
//	go run ./bench -agree A.json B.json              compare two result files against BENCHMARK.json's bounds
//	go run ./bench -derive bench/out/trace-W.jsonl   re-derive the per-layer table from a trace file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process and print its JSON result as the last line (default: every workload, one child process each)")
		seed    = flag.Int64("seed", 1, "workload seed: the checker's handler-randomness seed, and the deployment seed of the live workload")
		seconds = flag.Float64("seconds", 15, "measuring time per run: timed passes start until this much time has passed")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics with tracing off")
		smoke   = flag.Bool("smoke", false, "tiny sizes and two timed passes: exercises every check in seconds, measures nothing")
		runs    = flag.Int("runs", 1, "runs per workload, each with the next seed (every-workload mode)")
		outDir  = flag.String("outdir", "bench/out", "directory for the trace files and, in every-workload mode, result.json")
		agree   = flag.Bool("agree", false, "compare two result files: -agree A.json B.json")
		rederiv = flag.String("derive", "", "print the per-layer table derived from this trace file and exit")
	)
	flag.Parse()

	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -agree A.json B.json")
		}
		worse, err := agreeFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case *rederiv != "":
		spans, err := readTrace(*rederiv)
		if err != nil {
			fatal(2, "%v", err)
		}
		printTable(derive(spans))
	case *name != "":
		w, ok := lookupWorkload(*name)
		if !ok {
			fatal(2, "unknown workload %q", *name)
		}
		o := runOptions{w: w, seed: *seed, seconds: *seconds, traced: *trace != 0, smoke: *smoke, outDir: *outDir}
		res, err := runWorkload(o)
		if err != nil {
			fatal(3, "%v", err)
		}
		res.print(os.Stdout, o)
		line, err := json.Marshal(map[string]any{
			"correct":   res.correct,
			"attempted": res.attempted,
			"failed":    res.failed,
			"metrics":   res.metrics,
		})
		if err != nil {
			fatal(3, "%v", err)
		}
		// The verdict is in the result line; the exit code only says
		// whether there is one.
		fmt.Println(string(line))
	default:
		ok, err := runAll(allOptions{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, runs: *runs, outDir: *outDir})
		if err != nil {
			fatal(3, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// printTable prints a per-layer table; metric names start with their layer,
// so sorting them groups the table by layer.
func printTable(table map[string]float64) {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %18.6g %s\n", name, table[name], perLayerUnits[name])
	}
}
