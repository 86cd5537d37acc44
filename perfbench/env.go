package main

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"crossbow/internal/tensor"
)

// environment describes the machine and build a result was measured on.
func environment() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	avx2, fma, avx512f := isaFlags()
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d avx2=%v fma=%v avx512f=%v go=%s commit=%s worker_budget=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), avx2, fma, avx512f, runtime.Version(), commit, tensor.WorkerBudget())
}
