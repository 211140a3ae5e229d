package experiments

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/parallel"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// Figure7Result holds C — the CPU cycles to process one packet — per mode,
// stacked into the paper's four components: IOVA (de)allocation, page table
// updates, IOTLB invalidations, and everything else.
type Figure7Result struct {
	Modes []sim.Mode
	// Per-mode per-packet cycles by stack component.
	IOVA, PageTable, Inv, Other map[sim.Mode]float64
	Total                       map[sim.Mode]float64
	CNone                       float64
}

// Figure7PaperCNone is the paper's C_none anchor (bottom grid line).
const Figure7PaperCNone = 1816.0

// RunFigure7 measures per-packet cycles per mode under mlx Netperf stream.
// Each mode is one grid cell with its own simulation world.
func RunFigure7(cfg Config) (Figure7Result, error) {
	res := Figure7Result{
		Modes:     sim.AllModes(),
		IOVA:      map[sim.Mode]float64{},
		PageTable: map[sim.Mode]float64{},
		Inv:       map[sim.Mode]float64{},
		Other:     map[sim.Mode]float64{},
		Total:     map[sim.Mode]float64{},
	}
	opts := workload.StreamOpts{
		Messages:       cfg.Quality.scale(120, 400),
		WarmupMessages: cfg.Quality.scale(60, 150),
	}
	cells, err := parallel.Map(cfg.Workers, res.Modes, func(_ int, m sim.Mode) (workload.Result, error) {
		return netperfStream(cfg, m, device.ProfileMLX, opts)
	})
	if err != nil {
		return res, err
	}
	for i, m := range res.Modes {
		r := cells[i]
		b := r.Breakdown
		pkts := float64(r.Units)
		res.IOVA[m] = float64(b.Total(cycles.MapIOVAAlloc)+b.Total(cycles.UnmapIOVAFind)+b.Total(cycles.UnmapIOVAFree)) / pkts
		res.PageTable[m] = float64(b.Total(cycles.MapPageTable)+b.Total(cycles.UnmapPageTable)) / pkts
		res.Inv[m] = float64(b.Total(cycles.UnmapIOTLBInv)) / pkts
		res.Other[m] = float64(b.Total(cycles.Stack)+b.Total(cycles.MapOther)+b.Total(cycles.UnmapOther)+b.Total(cycles.App)) / pkts
		res.Total[m] = r.CyclesPerUnit
	}
	res.CNone = res.Total[sim.None]
	return res, nil
}

// Cells emits the per-mode stacked components.
func (r Figure7Result) Cells() []Cell {
	out := make([]Cell, 0, len(r.Modes))
	for _, m := range r.Modes {
		out = append(out, C("figure7", m.String(), map[string]float64{
			"iova_dealloc": r.IOVA[m],
			"page_table":   r.PageTable[m],
			"iotlb_inv":    r.Inv[m],
			"other":        r.Other[m],
			"total":        r.Total[m],
		}))
	}
	return out
}

// Render produces the stacked-bar data as a table plus relative labels.
func (r Figure7Result) Render() string {
	t := stats.NewTable(
		fmt.Sprintf("Figure 7. CPU cycles for processing one packet (C_none=%.0f; paper C_none=%.0f)", r.CNone, Figure7PaperCNone),
		"mode", "iova(de)alloc", "page table", "iotlb inv", "other", "total", "rel. to none")
	for _, m := range r.Modes {
		t.Row(m.String(), r.IOVA[m], r.PageTable[m], r.Inv[m], r.Other[m],
			r.Total[m], stats.Ratio(r.Total[m], r.CNone)+"x")
	}
	return t.String()
}

func init() {
	register(Experiment{
		ID:    "figure7",
		Title: "Figure 7: cycles per packet per mode, stacked by component",
		Paper: "C_none=1,816; C_strict ≈ 9.4x none; C_defer+ ≈ 3.3x none; rIOMMU brings C near C_none",
		Run:   wrap(RunFigure7),
	})
}
