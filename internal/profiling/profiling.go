// Package profiling wires runtime/pprof into the command-line tools. Both
// campaign runners expose -cpuprofile/-memprofile flags; the profiles are
// flushed by the stop function the caller defers inside run(), so they are
// written on every return path, before main passes run's code to os.Exit.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath (when non-empty). The returned
// stop function flushes the CPU profile and writes an allocs-space heap
// profile to memPath (when non-empty); it is safe to call exactly once.
// On error, Start has already cleaned up after itself.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set before snapshotting
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}
