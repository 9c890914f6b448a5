// Package profile writes the runtime/pprof profiles the commands take with
// -cpuprofile and -memprofile, around exactly the work they name.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts the CPU profile (when cpu names a file) and returns the
// function that stops it and writes the allocation profile (when mem names a
// file): called right before and right after the work, the two cover that
// work and nothing else.
func Start(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // the profile reports allocations as of the last completed collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		return f.Close()
	}, nil
}
