package cloneinto_test

import (
	"testing"

	"crystalball/internal/analysis/analysistest"
	"crystalball/internal/analysis/passes/cloneinto"
)

func TestCloneInto(t *testing.T) {
	analysistest.Run(t, cloneinto.Analyzer, "testdata/src/a")
}
