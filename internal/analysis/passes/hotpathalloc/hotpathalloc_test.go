package hotpathalloc_test

import (
	"testing"

	"crystalball/internal/analysis/analysistest"
	"crystalball/internal/analysis/passes/hotpathalloc"
)

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, hotpathalloc.Analyzer, "testdata/src/a")
}
