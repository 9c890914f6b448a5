// Package controller stands in for crystalball/internal/controller, the
// package the one-check-config row covers: no struct field may repeat a field
// of the checker's configuration.
package controller

import "crystalball/internal/analysis/passes/rules/testdata/src/mc"

type Config struct {
	Check  mc.Config
	Reduce bool // want `one-check-config: field Reduce mirrors mc.Config.Reduce`
	// Not a mirror: the same name with another type.
	Seed string
}

type round struct {
	seed int64
	Seed int64 // want `one-check-config`
}
