package hashmaint_test

import (
	"testing"

	"crystalball/internal/analysis/analysistest"
	"crystalball/internal/analysis/passes/hashmaint"
)

func TestHashMaint(t *testing.T) {
	analysistest.Run(t, hashmaint.Analyzer, "testdata/src/a")
}
