package experiments

import (
	"strings"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/parallel"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// Table1Result holds per-mode component averages: map rows then unmap rows.
type Table1Result struct {
	Modes []sim.Mode
	// Map components per mode: iova alloc, page table, other, sum.
	MapAlloc, MapPT, MapOther, MapSum map[sim.Mode]float64
	// Unmap components per mode: iova find, iova free, page table,
	// iotlb inv, other, sum.
	UnmapFind, UnmapFree, UnmapPT, UnmapInv, UnmapOther, UnmapSum map[sim.Mode]float64
}

// Table1Paper holds the paper's measured values for comparison.
var Table1Paper = map[string]map[sim.Mode]float64{
	"iova alloc": {sim.Strict: 3986, sim.StrictPlus: 92, sim.Defer: 1674, sim.DeferPlus: 108},
	"page table": {sim.Strict: 588, sim.StrictPlus: 590, sim.Defer: 533, sim.DeferPlus: 577},
	"map other":  {sim.Strict: 44, sim.StrictPlus: 45, sim.Defer: 44, sim.DeferPlus: 42},
	"iova find":  {sim.Strict: 249, sim.StrictPlus: 418, sim.Defer: 263, sim.DeferPlus: 454},
	"iova free":  {sim.Strict: 159, sim.StrictPlus: 62, sim.Defer: 189, sim.DeferPlus: 57},
	"unmap pt":   {sim.Strict: 438, sim.StrictPlus: 427, sim.Defer: 471, sim.DeferPlus: 504},
	"iotlb inv":  {sim.Strict: 2127, sim.StrictPlus: 2135, sim.Defer: 9, sim.DeferPlus: 9},
	"unmap oth":  {sim.Strict: 26, sim.StrictPlus: 25, sim.Defer: 205, sim.DeferPlus: 216},
}

// RunTable1 measures the map/unmap component breakdown under the Netperf
// stream workload on the mlx profile, as the paper did (§3.2). One cell
// per baseline mode.
func RunTable1(cfg Config) (Table1Result, error) {
	res := Table1Result{
		Modes:      sim.BaselineModes(),
		MapAlloc:   map[sim.Mode]float64{},
		MapPT:      map[sim.Mode]float64{},
		MapOther:   map[sim.Mode]float64{},
		MapSum:     map[sim.Mode]float64{},
		UnmapFind:  map[sim.Mode]float64{},
		UnmapFree:  map[sim.Mode]float64{},
		UnmapPT:    map[sim.Mode]float64{},
		UnmapInv:   map[sim.Mode]float64{},
		UnmapOther: map[sim.Mode]float64{},
		UnmapSum:   map[sim.Mode]float64{},
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
		b := cells[i].Breakdown
		res.MapAlloc[m] = b.Average(cycles.MapIOVAAlloc)
		res.MapPT[m] = b.Average(cycles.MapPageTable)
		res.MapOther[m] = b.Average(cycles.MapOther)
		res.MapSum[m] = res.MapAlloc[m] + res.MapPT[m] + res.MapOther[m]
		res.UnmapFind[m] = b.Average(cycles.UnmapIOVAFind)
		res.UnmapFree[m] = b.Average(cycles.UnmapIOVAFree)
		res.UnmapPT[m] = b.Average(cycles.UnmapPageTable)
		res.UnmapInv[m] = b.Average(cycles.UnmapIOTLBInv)
		res.UnmapOther[m] = b.Average(cycles.UnmapOther)
		res.UnmapSum[m] = res.UnmapFind[m] + res.UnmapFree[m] + res.UnmapPT[m] +
			res.UnmapInv[m] + res.UnmapOther[m]
	}
	return res, nil
}

// Cells emits the per-mode component breakdown.
func (r Table1Result) Cells() []Cell {
	out := make([]Cell, 0, len(r.Modes))
	for _, m := range r.Modes {
		out = append(out, C("table1", m.String(), map[string]float64{
			"map_iova_alloc": r.MapAlloc[m],
			"map_page_table": r.MapPT[m],
			"map_other":      r.MapOther[m],
			"map_sum":        r.MapSum[m],
			"unmap_find":     r.UnmapFind[m],
			"unmap_free":     r.UnmapFree[m],
			"unmap_pt":       r.UnmapPT[m],
			"unmap_inv":      r.UnmapInv[m],
			"unmap_other":    r.UnmapOther[m],
			"unmap_sum":      r.UnmapSum[m],
		}))
	}
	return out
}

// Render produces the paper-style table with paper values alongside.
func (r Table1Result) Render() string {
	t := stats.NewTable(
		"Table 1. Average cycles breakdown of the (un)map functions (measured | paper)",
		"function", "component", "strict", "strict+", "defer", "defer+")
	t.AlignLeft(1)
	cell := func(meas map[sim.Mode]float64, paperKey string, m sim.Mode) string {
		p := Table1Paper[paperKey][m]
		return strings.TrimSpace(stats.Ratio(meas[m], 1) + " | " + stats.Ratio(p, 1))
	}
	row := func(fn, comp, paperKey string, meas map[sim.Mode]float64) {
		t.RowStrings([]string{fn, comp,
			cell(meas, paperKey, sim.Strict),
			cell(meas, paperKey, sim.StrictPlus),
			cell(meas, paperKey, sim.Defer),
			cell(meas, paperKey, sim.DeferPlus)})
	}
	row("map", "iova alloc", "iova alloc", r.MapAlloc)
	row("", "page table", "page table", r.MapPT)
	row("", "other", "map other", r.MapOther)
	sumRow := func(fn string, meas map[sim.Mode]float64, paperSums map[sim.Mode]float64) {
		t.RowStrings([]string{fn, "sum",
			stats.Ratio(meas[sim.Strict], 1) + " | " + stats.Ratio(paperSums[sim.Strict], 1),
			stats.Ratio(meas[sim.StrictPlus], 1) + " | " + stats.Ratio(paperSums[sim.StrictPlus], 1),
			stats.Ratio(meas[sim.Defer], 1) + " | " + stats.Ratio(paperSums[sim.Defer], 1),
			stats.Ratio(meas[sim.DeferPlus], 1) + " | " + stats.Ratio(paperSums[sim.DeferPlus], 1)})
	}
	sumRow("", r.MapSum, map[sim.Mode]float64{sim.Strict: 4618, sim.StrictPlus: 727, sim.Defer: 2251, sim.DeferPlus: 727})
	row("unmap", "iova find", "iova find", r.UnmapFind)
	row("", "iova free", "iova free", r.UnmapFree)
	row("", "page table", "unmap pt", r.UnmapPT)
	row("", "iotlb inv", "iotlb inv", r.UnmapInv)
	row("", "other", "unmap oth", r.UnmapOther)
	sumRow("", r.UnmapSum, map[sim.Mode]float64{sim.Strict: 2999, sim.StrictPlus: 3067, sim.Defer: 1137, sim.DeferPlus: 1240})
	return t.String()
}

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: (un)map cycle breakdown per protection mode",
		Paper: "strict map dominated by IOVA alloc (3,986 cy); unmap by IOTLB inv (2,127 cy); '+' allocator cuts alloc to ~92 cy; defer cuts inv to 9 cy",
		Run:   wrap(RunTable1),
	})
}
