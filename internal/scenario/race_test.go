//go:build race

package scenario_test

func init() { raceDetector = true }
