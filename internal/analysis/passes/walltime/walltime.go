// Package walltime flags wall-clock reads (time.Now, time.Since, time.Sleep
// and friends) in simulation-deterministic packages. Deterministic replay
// and the controller's virtual-clock scheduling require that simulated code
// never observes the host clock: wall budgets flow through an injected
// clock (mc.Config.Now) so they stay unit-testable and suppressible in one
// place.
package walltime

import (
	"go/ast"

	"crystalball/internal/analysis"
)

// wallFuncs are the time package functions that read or wait on the host
// clock. Constructors like time.Duration arithmetic and constants are fine.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// Analyzer flags host-clock calls in simulation-deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name:            "walltime",
	Doc:             "flag time.Now/time.Since/time.Sleep in simulation-deterministic code (virtual clocks only)",
	PackagePrefixes: analysis.DeterministicPackages,
	Run:             run,
}

func run(pass *analysis.Pass) error {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Only calls are flagged: referencing time.Now as a value is
			// the sanctioned way to default an injected clock
			// (cfg.Now = time.Now).
			pkgPath, name, ok := analysis.PkgFuncCall(info, call)
			if !ok || pkgPath != "time" || !wallFuncs[name] {
				return true
			}
			pass.Reportf(call.Pos(),
				"wall-clock time.%s in simulation-deterministic code; read an injected clock (e.g. mc.Config.Now) or annotate //crystal:allow(walltime) with a reason", name)
			return true
		})
	}
	return nil
}
