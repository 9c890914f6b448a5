package analysis_test

import (
	"testing"

	"crystalball/internal/analysis"
	"crystalball/internal/analysis/passes"
	"crystalball/internal/analysis/passes/maporder"
)

// TestDirectiveValidation pins the crystal:allow contract: an unknown pass
// name, a missing reason and a pass that takes no suppressions are findings
// in their own right (pseudo-pass "directive"), and such malformed directives
// do not suppress, while a well-formed reasoned directive does. A directive
// naming a known pass that is not selected is left alone.
func TestDirectiveValidation(t *testing.T) {
	pkgs, err := analysis.Load("testdata/src/directive", ".")
	if err != nil {
		t.Fatalf("loading directive testdata: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	res, err := analysis.RunPackage(pkgs[0], []*analysis.Analyzer{maporder.Analyzer}, passes.All, false)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, d := range res.Diagnostics {
		counts[d.AnalyzerName]++
	}
	if counts["directive"] != 3 {
		t.Errorf("directive-validation findings = %d, want 3 (unknown pass, missing reason, unsuppressible pass); diags: %+v",
			counts["directive"], res.Diagnostics)
	}
	if counts["maporder"] != 2 {
		t.Errorf("unsuppressed maporder findings = %d, want 2 (malformed directives must not suppress)",
			counts["maporder"])
	}
	if len(res.Suppressed) != 1 {
		t.Errorf("suppressed = %d, want 1 (the reasoned directive)", len(res.Suppressed))
	}
}
