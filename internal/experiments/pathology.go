package experiments

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// PathologyResult isolates the §3.2 finding that motivated the authors'
// companion FAST'15 allocator: the Linux IOVA allocator "regularly causes
// some allocations to be linear in the number of currently allocated
// IOVAs". We sweep the live-set size (the Rx ring provisioning) and measure
// the strict-mode allocation cost and the worst single gap-search walk,
// plus the constant-time allocator for contrast.
type PathologyResult struct {
	// The strict-mode sweep, keyed by live set.
	Grid[uint32, PathologyPoint]
	// ConstAllocCycles is the "+" allocator's (flat) cost for reference.
	ConstAllocCycles float64
}

// PathologyPoint is one sweep point: the mean strict-mode IOVA allocation
// cost and the longest single rb-prev gap-search walk.
type PathologyPoint struct {
	AvgAllocCycles float64
	MaxWalkNodes   uint64
}

// RunPathology sweeps the live-IOVA population, one cell per live set, then
// runs the constant-time reference, whose live set is irrelevant.
func RunPathology(cfg Config) (PathologyResult, error) {
	opts := workload.StreamOpts{
		Messages:       cfg.Quality.scale(80, 250),
		WarmupMessages: cfg.Quality.scale(40, 100),
	}
	g, err := runGrid(cfg, []uint32{1024, 2048, 4096, 8192}, func(live uint32) (PathologyPoint, error) {
		profile := device.ProfileMLX
		profile.RxEntries = live
		r, err := workload.NetperfStream(sim.Strict, profile, opts)
		return PathologyPoint{
			AvgAllocCycles: r.Breakdown.Average(cycles.MapIOVAAlloc),
			MaxWalkNodes:   r.MaxAllocVisits,
		}, err
	})
	if err != nil {
		return PathologyResult{}, err
	}
	ref, err := workload.NetperfStream(sim.StrictPlus, device.ProfileMLX, opts)
	return PathologyResult{Grid: g, ConstAllocCycles: ref.Breakdown.Average(cycles.MapIOVAAlloc)}, err
}

// Cells emits the sweep points and the constant-time reference.
func (r PathologyResult) Cells() []Cell {
	out := r.cells("pathology", func(live uint32, p PathologyPoint) (string, map[string]float64) {
		return fmt.Sprintf("live=%d", live), map[string]float64{
			"avg_alloc_cycles": p.AvgAllocCycles,
			"max_walk_nodes":   float64(p.MaxWalkNodes),
		}
	})
	return append(out, C("pathology", "const-allocator", map[string]float64{
		"avg_alloc_cycles": r.ConstAllocCycles,
	}))
}

// Render prints the sweep.
func (r PathologyResult) Render() string {
	t := stats.NewTable(
		"Sec 3.2. Linux IOVA allocator pathology: allocation cost vs live IOVAs (strict, mlx stream)",
		"live IOVAs (Rx ring)", "avg alloc cycles", "worst walk (nodes)")
	for i, live := range r.Keys {
		p := r.Results[i]
		t.Row(fmt.Sprintf("%d", live), p.AvgAllocCycles, fmt.Sprintf("%d", p.MaxWalkNodes))
	}
	out := t.String()
	out += fmt.Sprintf("constant-time '+' allocator: %.0f cycles regardless of live set (paper: 92)\n", r.ConstAllocCycles)
	return out
}
