package experiments

import (
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// Table1Row is one mode's average cycles per call of each (un)map
// component, with the map and unmap sums.
type Table1Row struct {
	MapAlloc, MapPT, MapOther, MapSum                             float64
	UnmapFind, UnmapFree, UnmapPT, UnmapInv, UnmapOther, UnmapSum float64
}

// Table1Result holds one row per baseline mode.
type Table1Result struct {
	Grid[sim.Mode, Table1Row]
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
	opts := workload.StreamOpts{
		Messages:       cfg.Quality.scale(120, 400),
		WarmupMessages: cfg.Quality.scale(60, 150),
	}
	g, err := runGrid(cfg, sim.BaselineModes(), func(m sim.Mode) (Table1Row, error) {
		r, err := netperfStream(cfg, m, device.ProfileMLX, opts)
		b := r.Breakdown
		row := Table1Row{
			MapAlloc:   b.Average(cycles.MapIOVAAlloc),
			MapPT:      b.Average(cycles.MapPageTable),
			MapOther:   b.Average(cycles.MapOther),
			UnmapFind:  b.Average(cycles.UnmapIOVAFind),
			UnmapFree:  b.Average(cycles.UnmapIOVAFree),
			UnmapPT:    b.Average(cycles.UnmapPageTable),
			UnmapInv:   b.Average(cycles.UnmapIOTLBInv),
			UnmapOther: b.Average(cycles.UnmapOther),
		}
		row.MapSum = row.MapAlloc + row.MapPT + row.MapOther
		row.UnmapSum = row.UnmapFind + row.UnmapFree + row.UnmapPT + row.UnmapInv + row.UnmapOther
		return row, err
	})
	return Table1Result{g}, err
}

// Cells emits the per-mode component breakdown.
func (r Table1Result) Cells() []Cell {
	return r.cells("table1", func(m sim.Mode, row Table1Row) (string, map[string]float64) {
		return m.String(), map[string]float64{
			"map_iova_alloc": row.MapAlloc,
			"map_page_table": row.MapPT,
			"map_other":      row.MapOther,
			"map_sum":        row.MapSum,
			"unmap_find":     row.UnmapFind,
			"unmap_free":     row.UnmapFree,
			"unmap_pt":       row.UnmapPT,
			"unmap_inv":      row.UnmapInv,
			"unmap_other":    row.UnmapOther,
			"unmap_sum":      row.UnmapSum,
		}
	})
}

// Render produces the paper-style table with paper values alongside.
func (r Table1Result) Render() string {
	t := stats.NewTable(
		"Table 1. Average cycles breakdown of the (un)map functions (measured | paper)",
		"function", "component", "strict", "strict+", "defer", "defer+")
	t.AlignLeft(1)
	// row prints one component per mode; its paper value is the sum of the
	// named Table1Paper rows, so a sum row names every component it sums.
	row := func(fn, comp string, meas func(Table1Row) float64, paper ...string) {
		cells := []string{fn, comp}
		for i, m := range r.Keys {
			var p float64
			for _, name := range paper {
				p += Table1Paper[name][m]
			}
			cells = append(cells, stats.Ratio(meas(r.Results[i]), 1)+" | "+stats.Ratio(p, 1))
		}
		t.RowStrings(cells)
	}
	row("map", "iova alloc", func(x Table1Row) float64 { return x.MapAlloc }, "iova alloc")
	row("", "page table", func(x Table1Row) float64 { return x.MapPT }, "page table")
	row("", "other", func(x Table1Row) float64 { return x.MapOther }, "map other")
	row("", "sum", func(x Table1Row) float64 { return x.MapSum }, "iova alloc", "page table", "map other")
	row("unmap", "iova find", func(x Table1Row) float64 { return x.UnmapFind }, "iova find")
	row("", "iova free", func(x Table1Row) float64 { return x.UnmapFree }, "iova free")
	row("", "page table", func(x Table1Row) float64 { return x.UnmapPT }, "unmap pt")
	row("", "iotlb inv", func(x Table1Row) float64 { return x.UnmapInv }, "iotlb inv")
	row("", "other", func(x Table1Row) float64 { return x.UnmapOther }, "unmap oth")
	row("", "sum", func(x Table1Row) float64 { return x.UnmapSum },
		"iova find", "iova free", "unmap pt", "iotlb inv", "unmap oth")
	return t.String()
}
