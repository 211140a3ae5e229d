package experiments

import (
	"fmt"
	"strings"

	"riommu/internal/device"
	"riommu/internal/multicore"
	"riommu/internal/parallel"
	"riommu/internal/sim"
	"riommu/internal/stats"
)

// IntremapKey identifies one interrupt-remapping overhead point: a
// protection mode with completion-interrupt remapping on or off.
type IntremapKey struct {
	Mode  sim.Mode
	Remap bool
}

// IntremapResult holds the interrupt-remapping overhead experiment: for
// every presentation mode at a fixed core count, the 4-core scale-out run
// is measured with MSI-X completion interrupts posted through the remapper
// (table walk + IEC cache + per-core dispatch charges) and again with
// interrupts off, isolating what interrupt delivery adds on top of the DMA
// protection cost.
type IntremapResult struct {
	Modes  []sim.Mode
	Cores  int
	Matrix map[IntremapKey]multicore.Result
}

// intremapCores fixes the experiment's core count: enough queues that the
// per-core posting/delivery split is exercised, small enough to stay quick.
const intremapCores = 4

// RunIntremap sweeps modes x {remap on, off} through the multicore engine
// on the mlx profile. The remapper validates every completion message
// (remappable format in the protected modes, compatibility pass-through in
// none) and charges the dispatch to the receiving core's timeline.
func RunIntremap(cfg Config) (IntremapResult, error) {
	res := IntremapResult{
		Modes:  sim.AllModes(),
		Cores:  intremapCores,
		Matrix: map[IntremapKey]multicore.Result{},
	}
	q := cfg.Quality
	packets, warmup := q.scale(160, 800), q.scale(60, 240)

	var grid []IntremapKey
	for _, m := range res.Modes {
		for _, remap := range []bool{false, true} {
			grid = append(grid, IntremapKey{Mode: m, Remap: remap})
		}
	}
	cells, err := parallel.Map(cfg.Workers, grid, func(_ int, k IntremapKey) (multicore.Result, error) {
		r, err := runMulticore(cfg, multicore.Params{
			Mode:           k.Mode,
			Profile:        device.ProfileMLX,
			Cores:          res.Cores,
			PacketsPerCore: packets,
			WarmupPerCore:  warmup,
			IntRemap:       k.Remap,
		})
		if err != nil {
			return r, fmt.Errorf("%s/remap=%v: %w", k.Mode, k.Remap, err)
		}
		return r, nil
	})
	if err != nil {
		return res, err
	}
	for i, k := range grid {
		res.Matrix[k] = cells[i]
	}
	return res, nil
}

// Cells emits the matrix in grid order.
func (r IntremapResult) Cells() []Cell {
	var out []Cell
	for _, m := range r.Modes {
		for _, remap := range []bool{false, true} {
			c := r.Matrix[IntremapKey{Mode: m, Remap: remap}]
			tag := "off"
			if remap {
				tag = "on"
			}
			out = append(out, C("intremap",
				fmt.Sprintf("mlx/%s/remap=%s", m, tag),
				map[string]float64{
					"agg_gbps":       c.AggGbps,
					"cycles_per_pkt": c.MeanCyclesPerPacket,
					"int_delivered":  float64(c.Int.Delivered),
					"int_posted":     float64(c.Int.PostedDeliv),
					"int_blocked":    float64(c.Int.Blocked()),
					"iec_hits":       float64(c.Int.CacheHits),
					"iec_misses":     float64(c.Int.CacheMisses),
				}))
		}
	}
	return out
}

// Render prints the per-mode overhead table: cycles per packet with and
// without remapped completion interrupts, the delta, and the IEC cache's
// hit behaviour.
func (r IntremapResult) Render() string {
	var b strings.Builder
	t := stats.NewTable(
		fmt.Sprintf("Interrupt remapping overhead (mlx, %d cores). Cycles/packet with posted MSI-X vs without", r.Cores),
		"mode", "C plain", "C remapped", "delta", "delivered", "posted", "blocked", "IEC hit%")
	t.AlignLeft(0)
	for _, m := range r.Modes {
		plain := r.Matrix[IntremapKey{Mode: m}]
		on := r.Matrix[IntremapKey{Mode: m, Remap: true}]
		hitPct := 0.0
		if lookups := on.Int.CacheHits + on.Int.CacheMisses; lookups > 0 {
			hitPct = 100 * float64(on.Int.CacheHits) / float64(lookups)
		}
		t.Row(m.String(),
			fmt.Sprintf("%.1f", plain.MeanCyclesPerPacket),
			fmt.Sprintf("%.1f", on.MeanCyclesPerPacket),
			fmt.Sprintf("%+.1f", on.MeanCyclesPerPacket-plain.MeanCyclesPerPacket),
			on.Int.Delivered, on.Int.PostedDeliv, on.Int.Blocked(),
			fmt.Sprintf("%.1f%%", hitPct))
	}
	b.WriteString(t.String())
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "intremap",
		Title: "Interrupt remapping overhead: posted MSI-X delivery per mode",
		Paper: "§2/§4 extension: the IOMMU's interrupt-remapping unit validates every MSI against the IRT; the experiment charges the walk/IEC-cache and per-core dispatch costs and isolates their overhead on the scale-out workload",
		Run:   wrap(RunIntremap),
	})
}
