// Package parallel is the deterministic worker-pool engine behind the
// experiment grid. Every Figure/Table cell, ablation point and
// fault-campaign sweep point is an independent simulation world (its own
// PhysMem, clocks and seeded fault engine), so the grid is embarrassingly
// parallel — the only thing that must NOT depend on scheduling is the
// output. The engine guarantees that by construction:
//
//   - Work is handed out by an atomic cursor, but every cell writes its
//     result into a slot preallocated at the cell's grid index, so the
//     merged result order equals the grid order regardless of which worker
//     ran which cell.
//   - All cells run even when some fail, and the reported error is the one
//     from the lowest-index failing cell. (Cancelling on first error would
//     make the *set of executed cells* — and therefore the surviving
//     error — a function of scheduling.)
//   - Per-cell randomness is derived with CellSeed, a pure function of the
//     base seed and the cell's identity, never of worker identity or
//     execution order.
//
// Together these make the parallel output byte-identical to the serial
// (workers == 1) path for a fixed seed, which is what lets CI diff
// experiment output exactly.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a -parallel flag value: n >= 1 is taken literally,
// anything else (the flag default 0) means one worker per CPU.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// Run executes fn(i) for every i in [0, n) on at most workers concurrent
// goroutines. workers <= 1 is the legacy serial path: every cell runs
// in index order on the calling goroutine. In both paths every cell is
// executed (failures do not cancel the rest) and the returned error is the
// lowest-index cell's error, so the outcome is independent of scheduling.
func Run(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := range errs {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over every element of in using Run and returns the results
// in input order. On error the returned slice still holds the results of
// every cell that succeeded (failed cells keep the zero value).
func Map[T, R any](workers int, in []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := Run(workers, len(in), func(i int) error {
		r, err := fn(i, in[i])
		out[i] = r
		return err
	})
	return out, err
}

// CellSeed derives the RNG seed for one grid cell from the campaign's base
// seed and the cell's identity string. It is a pure function — FNV-1a over
// the id folded into the base seed, finalized with splitmix64 — so a cell's
// randomness depends only on what the cell *is*, never on which worker ran
// it or when. Distinct cells get statistically independent streams.
func CellSeed(base uint64, id string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime
	}
	// splitmix64 finalizer over the combined state.
	z := base + h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
