// Command crystalvet is the repo's static-analysis multichecker: it runs the
// custom determinism, hot-path, fingerprint-maintenance and clone passes of
// internal/analysis/passes, and the table of design rules, over the module
// and exits non-zero on any finding. -list prints every pass and every rule
// with its reason. CI runs it as a blocking lint job; run it locally with
// `make lint` or `go run ./cmd/crystalvet ./...`.
//
// No comment suppresses a finding: an exception is structural (a loop the
// pass proves order-independent) or an Allow site of a rules row.
package main

import (
	"flag"
	"fmt"
	"os"

	"crystalball/internal/analysis"
	"crystalball/internal/analysis/passes"
	"crystalball/internal/analysis/passes/rules"
)

func main() {
	listPasses := flag.Bool("list", false, "list the registered passes and exit")
	sel := flag.String("passes", "", "comma-separated pass selection (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crystalvet [flags] [package patterns]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the crystalball static-analysis suite (default patterns: ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listPasses {
		for _, a := range passes.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		for _, r := range rules.Table {
			fmt.Printf("\nrules: %s\n", r)
		}
		return
	}
	selected, ok := passes.ByName(*sel)
	if !ok {
		fmt.Fprintf(os.Stderr, "crystalvet: unknown pass in -passes=%q (see -list)\n", *sel)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crystalvet: %v\n", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(pkg, selected, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crystalvet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Printf("%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.AnalyzerName)
		}
		findings += len(diags)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "crystalvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "crystalvet: clean")
}
