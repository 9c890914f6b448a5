package maporder_test

import (
	"testing"

	"crystalball/internal/analysis/analysistest"
	"crystalball/internal/analysis/passes/maporder"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, maporder.Analyzer, "testdata/src/a")
}
