package experiments

import (
	"fmt"

	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// BonnieResult reproduces the §4 applicability check: Bonnie++-style
// sequential I/O over a SATA/AHCI drive is indistinguishable with strict
// IOMMU protection and with the IOMMU disabled, because the drive — not the
// CPU — is the bottleneck.
type BonnieResult struct {
	Grid[sim.Mode, workload.Result]
}

// RunBonnie measures sequential throughput in strict and none modes (plus
// rIOMMU for completeness, though §4 notes SATA's out-of-order 32-slot
// queue is outside rIOMMU's target class).
func RunBonnie(cfg Config) (BonnieResult, error) {
	opts := workload.BonnieOpts{Ops: cfg.Quality.scale(200, 800)}
	g, err := runGrid(cfg, []sim.Mode{sim.Strict, sim.None}, func(m sim.Mode) (workload.Result, error) {
		return workload.Bonnie(m, opts)
	})
	return BonnieResult{g}, err
}

// Cells emits the per-mode throughput points.
func (r BonnieResult) Cells() []Cell {
	return r.cells("bonnie", func(m sim.Mode, c workload.Result) (string, map[string]float64) {
		return m.String(), map[string]float64{
			"mbps": c.Throughput,
			"cpu":  c.CPU,
		}
	})
}

// Render prints the comparison.
func (r BonnieResult) Render() string {
	t := stats.NewTable(
		"Sec 4. Bonnie++ sequential I/O over SATA: strict vs no IOMMU",
		"mode", "MB/s", "cpu %")
	for i, m := range r.Keys {
		t.Row(m.String(), r.Results[i].Throughput, r.Results[i].CPU*100)
	}
	ratio := 0.0
	if none := r.At(sim.None).Throughput; none > 0 {
		ratio = r.At(sim.Strict).Throughput / none
	}
	return t.String() + fmt.Sprintf("strict/none = %.3f (paper: indistinguishable)\n", ratio)
}
