// Package analysis is a self-contained miniature of golang.org/x/tools'
// go/analysis: just enough driver, directive and golden-test machinery to
// host the crystalvet passes on the standard library alone (the repo builds
// with zero module dependencies by design).
//
// The passes machine-check the invariants CrystalBall's guarantees rest on
// and which earlier PRs enforced only with runtime oracles after the bug had
// already shipped: no map-iteration order leaking into deterministic
// exploration (the PR 2 bug class), no allocation-prone constructs on
// //crystal:hotpath functions (the PR 4 surface), and no GState component
// write without its paired incremental fingerprint update (the invariant the
// FullHash oracle tests only at runtime). The rules pass holds the design
// rules as a table: which objects and forms may appear where, and why —
// among them no wall clock in simulation-deterministic code and no draw from
// the global random source anywhere.
//
// One directive configures a pass in source:
//
//	//crystal:hotpath
//	    in a function's doc comment, marks it hot-path: the hotpathalloc
//	    pass flags allocation-prone constructs inside it.
//
// No comment suppresses a finding. A pass's exceptions are structural (a
// loop maporder can prove order-independent) or stated once as an Allow
// site of a rules row.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in crystalvet -passes.
	Name string
	// Doc is a one-line description.
	Doc string
	// PackagePrefixes scopes the pass to packages whose import path equals
	// one of the prefixes or lives below it ("a/b" matches "a/b" and
	// "a/b/c", never "a/bc"). Empty = every package. The scoping is
	// applied by the driver; analysistest runs the pass unscoped so golden
	// packages need no special import paths.
	PackagePrefixes []string
	// Run executes the pass, reporting findings through pass.Report.
	Run func(*Pass) error
}

// A Pass connects one analyzer run to one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Report   func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding. AnalyzerName is filled by the driver.
type Diagnostic struct {
	Pos          token.Pos
	Message      string
	AnalyzerName string
}

// Matches reports whether the analyzer's package scope admits import path.
func (a *Analyzer) Matches(importPath string) bool {
	if len(a.PackagePrefixes) == 0 {
		return true
	}
	for _, p := range a.PackagePrefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// DeterministicPackages are the import-path prefixes of the code that runs
// inside the checker or a simulated deployment: the checker and its sharded
// form, the state machine API, the properties, the services and their test
// service, the simulator and its network, and the live stack (snapshot,
// controller, runtime) the scenarios deploy. Same-seed replay, the handler
// memo and the edge seeds all assume this code is a function of its inputs,
// so the maporder pass and the rules table's wall-clock row are scoped to it.
var DeterministicPackages = []string{
	"crystalball/internal/controller",
	"crystalball/internal/dist",
	"crystalball/internal/mc",
	"crystalball/internal/props",
	"crystalball/internal/runtime",
	"crystalball/internal/scenario",
	"crystalball/internal/services",
	"crystalball/internal/sim",
	"crystalball/internal/simnet",
	"crystalball/internal/sm",
	"crystalball/internal/snapshot",
	"crystalball/internal/testsvc",
}

const hotpathDirective = "//crystal:hotpath"

// IsHotpathDoc reports whether a function doc comment carries the
// //crystal:hotpath directive.
func IsHotpathDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}
