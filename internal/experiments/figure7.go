package experiments

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// Figure7Bar is one mode's C, the CPU cycles to process one packet,
// stacked into the paper's four components: IOVA (de)allocation, page
// table updates, IOTLB invalidations, and everything else.
type Figure7Bar struct {
	IOVA, PageTable, Inv, Other, Total float64
}

// Figure7Result holds one bar per mode.
type Figure7Result struct {
	Grid[sim.Mode, Figure7Bar]
	CNone float64
}

// Figure7PaperCNone is the paper's C_none anchor (bottom grid line).
const Figure7PaperCNone = 1816.0

// RunFigure7 measures per-packet cycles per mode under mlx Netperf stream.
// Each mode is one grid cell with its own simulation world.
func RunFigure7(cfg Config) (Figure7Result, error) {
	opts := workload.StreamOpts{
		Messages:       cfg.Quality.scale(120, 400),
		WarmupMessages: cfg.Quality.scale(60, 150),
	}
	g, err := runGrid(cfg, sim.AllModes(), func(m sim.Mode) (Figure7Bar, error) {
		r, err := netperfStream(cfg, m, device.ProfileMLX, opts)
		b, pkts := r.Breakdown, float64(r.Units)
		return Figure7Bar{
			IOVA:      float64(b.Total(cycles.MapIOVAAlloc)+b.Total(cycles.UnmapIOVAFind)+b.Total(cycles.UnmapIOVAFree)) / pkts,
			PageTable: float64(b.Total(cycles.MapPageTable)+b.Total(cycles.UnmapPageTable)) / pkts,
			Inv:       float64(b.Total(cycles.UnmapIOTLBInv)) / pkts,
			Other:     float64(b.Total(cycles.Stack)+b.Total(cycles.MapOther)+b.Total(cycles.UnmapOther)+b.Total(cycles.App)) / pkts,
			Total:     r.CyclesPerUnit,
		}, err
	})
	return Figure7Result{Grid: g, CNone: g.At(sim.None).Total}, err
}

// Cells emits the per-mode stacked components.
func (r Figure7Result) Cells() []Cell {
	return r.cells("figure7", func(m sim.Mode, bar Figure7Bar) (string, map[string]float64) {
		return m.String(), map[string]float64{
			"iova_dealloc": bar.IOVA,
			"page_table":   bar.PageTable,
			"iotlb_inv":    bar.Inv,
			"other":        bar.Other,
			"total":        bar.Total,
		}
	})
}

// Render produces the stacked-bar data as a table plus relative labels.
func (r Figure7Result) Render() string {
	t := stats.NewTable(
		fmt.Sprintf("Figure 7. CPU cycles for processing one packet (C_none=%.0f; paper C_none=%.0f)", r.CNone, Figure7PaperCNone),
		"mode", "iova(de)alloc", "page table", "iotlb inv", "other", "total", "rel. to none")
	for i, m := range r.Keys {
		bar := r.Results[i]
		t.Row(m.String(), bar.IOVA, bar.PageTable, bar.Inv, bar.Other,
			bar.Total, stats.Ratio(bar.Total, r.CNone)+"x")
	}
	return t.String()
}
