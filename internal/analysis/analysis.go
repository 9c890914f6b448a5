// Package analysis is a self-contained miniature of golang.org/x/tools'
// go/analysis: just enough driver, directive and golden-test machinery to
// host the crystalvet passes on the standard library alone (the repo builds
// with zero module dependencies by design).
//
// The passes machine-check the invariants CrystalBall's guarantees rest on
// and which earlier PRs enforced only with runtime oracles after the bug had
// already shipped: no map-iteration order leaking into deterministic
// exploration (the PR 2 bug class), no wall clocks or global randomness in
// simulation-deterministic code, no allocation-prone constructs on
// //crystal:hotpath functions (the PR 4 surface), and no GState component
// write without its paired incremental fingerprint update (the invariant the
// FullHash oracle tests only at runtime). The rules pass holds the design
// rules as a table: which objects and forms may appear where, and why.
//
// Two directives configure the passes in source:
//
//	//crystal:hotpath
//	    in a function's doc comment, marks it hot-path: the hotpathalloc
//	    pass flags allocation-prone constructs inside it.
//
//	//crystal:allow(<pass>) <reason>
//	    suppresses <pass>'s findings on the directive's line (when it
//	    trails code), on the next line (when it stands alone), or in the
//	    whole function (when it appears in the function's doc comment).
//	    The reason is mandatory: a suppression with no justification is
//	    itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in
	// //crystal:allow(<name>) directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// PackagePrefixes scopes the pass to packages whose import path equals
	// one of the prefixes or lives below it ("a/b" matches "a/b" and
	// "a/b/c", never "a/bc"). Empty = every package. The scoping is
	// applied by the driver; analysistest runs the pass unscoped so golden
	// packages need no special import paths.
	PackagePrefixes []string
	// Unsuppressible passes take no //crystal:allow directive: their
	// exceptions are stated in the pass itself, and a directive naming one
	// is reported.
	Unsuppressible bool
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
// so the maporder and walltime passes are scoped to it.
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

// Directive names.
const (
	allowDirective   = "//crystal:allow("
	hotpathDirective = "//crystal:hotpath"
)

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

// allowance is one parsed //crystal:allow directive.
type allowance struct {
	pass   string
	reason string
	pos    token.Pos
	// lines the allowance covers (inline: its own line; standalone: its
	// own and the following line). Function-doc allowances instead cover
	// the [funcPos, funcEnd] range.
	lines            [2]int
	funcPos, funcEnd token.Pos
	used             bool
}

// parseAllow extracts the pass name and reason from one comment's text, or
// ok=false if the comment is not an allow directive.
func parseAllow(text string) (pass, reason string, ok bool) {
	if !strings.HasPrefix(text, allowDirective) {
		return "", "", false
	}
	rest := text[len(allowDirective):]
	i := strings.IndexByte(rest, ')')
	if i < 0 {
		return "", "", false
	}
	return strings.TrimSpace(rest[:i]), strings.TrimSpace(rest[i+1:]), true
}
