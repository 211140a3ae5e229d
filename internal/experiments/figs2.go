package experiments

import (
	"fmt"
	"strings"

	"riommu/internal/device"
	"riommu/internal/parallel"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/traffic"
)

// FigS2Key identifies one churn-sweep matrix point.
type FigS2Key struct {
	Conns int
	Path  string // "kernel" or "bypass"
	Mode  sim.Mode
}

// FigS2Result holds Figure S2: throughput versus concurrent-connection
// count for every protection mode on both data paths of the traffic
// engine, on the mlx profile (the paper's high-rate NIC).
type FigS2Result struct {
	Conns []int // the swept fleet sizes
	Grid[FigS2Key, traffic.Result]
}

// figS2Paths are Figure S2's two data paths, in table order.
var figS2Paths = []string{"kernel", "bypass"}

// FigS2Seed is the base seed; each cell derives its own from its key.
const FigS2Seed = 42

// figS2Conns returns the swept fleet sizes, log-spaced 1K to 1M.
func figS2Conns(q Quality) []int {
	if q == Full {
		return []int{1_000, 10_000, 100_000, 1_000_000}
	}
	return []int{1_000, 32_000, 1_000_000}
}

// figS2Cell derives one cell's traffic Config from its key. The fleet size
// maps to the churn rate — the live table is a fixed-size window onto the
// fleet, and the per-flow packet budget shrinks as connections grow (a
// fixed packet arrival rate spread over more, shorter flows), so 1M
// connections is the one-packet-per-flow map/unmap storm regime.
func figS2Cell(q Quality, k FigS2Key) traffic.Config {
	slots := k.Conns
	slotCap := q.scale(256, 2048)
	if slots > slotCap {
		slots = slotCap
	}
	mean := (1 << 20) / k.Conns
	if mean < 1 {
		mean = 1
	}
	bypass := 0
	if k.Path == "bypass" {
		bypass = 1000
	}
	return traffic.Config{
		Mode:            k.Mode,
		Profile:         device.ProfileMLX,
		Seed:            parallel.CellSeed(FigS2Seed, figS2ID(k)),
		TableSlots:      slots,
		MeanFlowPackets: mean,
		BypassPermille:  bypass,
		Ticks:           q.scale(12, 96),
		WarmupTicks:     q.scale(4, 24),
		MsgsPerTick:     q.scale(6, 16),
		IncastEvery:     4,
		IncastFan:       q.scale(12, 48),
		Diurnal:         true,
		Audit:           true,
	}
}

func figS2ID(k FigS2Key) string {
	return fmt.Sprintf("conns=%d/%s/%s", k.Conns, k.Path, k.Mode)
}

// RunFigS2 sweeps connections x paths x modes through the traffic engine.
// Every cell is an independent seeded world, so the sweep parallelizes
// byte-identically.
func RunFigS2(cfg Config) (FigS2Result, error) {
	conns := figS2Conns(cfg.Quality)
	var keys []FigS2Key
	for _, n := range conns {
		for _, path := range figS2Paths {
			for _, m := range sim.AllModes() {
				keys = append(keys, FigS2Key{Conns: n, Path: path, Mode: m})
			}
		}
	}
	g, err := runGrid(cfg, keys, func(k FigS2Key) (traffic.Result, error) {
		r, err := traffic.Run(figS2Cell(cfg.Quality, k))
		if err != nil {
			return r, fmt.Errorf("%s: %w", figS2ID(k), err)
		}
		if r.AuditViolations != 0 {
			return r, fmt.Errorf("%s: %d audit violations without an attacker",
				figS2ID(k), r.AuditViolations)
		}
		return r, nil
	})
	return FigS2Result{Conns: conns, Grid: g}, err
}

// Cells emits the matrix in grid order. The digests ride along as exact
// 32-bit halves so the golden pins the application byte stream and the
// mapping history, not just the averaged metrics.
func (r FigS2Result) Cells() []Cell {
	return r.cells("figS2", func(k FigS2Key, c traffic.Result) (string, map[string]float64) {
		return figS2ID(k), map[string]float64{
			"gbps":             c.Gbps,
			"cycles_per_pkt":   c.CyclesPerPkt,
			"packets":          float64(c.DataPackets),
			"opens":            float64(c.Opens),
			"closes":           float64(c.Closes),
			"map_events":       float64(c.MapEvents),
			"app_digest_hi":    float64(uint32(c.AppDigest >> 32)),
			"app_digest_lo":    float64(uint32(c.AppDigest)),
			"map_digest_hi":    float64(uint32(c.MapDigest >> 32)),
			"map_digest_lo":    float64(uint32(c.MapDigest)),
			"audit_checked":    float64(c.AuditChecked),
			"audit_violations": float64(c.AuditViolations),
			"max_alloc_visits": float64(c.MaxAllocVisits),
			"carved_pages":     float64(c.CarvedPages),
		}
	})
}

// Render prints one Gbps table per path (modes x connections) plus the
// collapse summary at the top of the sweep.
func (r FigS2Result) Render() string {
	var b strings.Builder
	for _, path := range figS2Paths {
		header := []string{"mode"}
		for _, conns := range r.Conns {
			header = append(header, fmt.Sprintf("%dK conns", conns/1000))
		}
		header = append(header, "collapse")
		t := stats.NewTable(
			fmt.Sprintf("Figure S2 (%s path, %s). Gbps vs concurrent connections",
				path, device.ProfileMLX.Name),
			header...)
		t.AlignLeft(0)
		for _, m := range sim.AllModes() {
			row := []string{m.String()}
			var first, last float64
			for i, conns := range r.Conns {
				c := r.At(FigS2Key{Conns: conns, Path: path, Mode: m})
				if i == 0 {
					first = c.Gbps
				}
				last = c.Gbps
				row = append(row, fmt.Sprintf("%.2f", c.Gbps))
			}
			row = append(row, stats.Ratio(first, last)+"x")
			t.RowStrings(row)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}

	maxConns := r.Conns[len(r.Conns)-1]
	strict := r.At(FigS2Key{Conns: maxConns, Path: "kernel", Mode: sim.Strict})
	riommu := r.At(FigS2Key{Conns: maxConns, Path: "kernel", Mode: sim.RIOMMU})
	bypass := r.At(FigS2Key{Conns: maxConns, Path: "bypass", Mode: sim.Strict})
	fmt.Fprintf(&b, "At %dK connections (~%d pkt/flow): strict kernel %.2f Gbps (C=%.0f), "+
		"rIOMMU kernel %.2f Gbps (%sx), strict bypass %.2f Gbps (%sx).\n",
		maxConns/1000, (1<<20)/maxConns,
		strict.Gbps, strict.CyclesPerPkt,
		riommu.Gbps, stats.Ratio(riommu.Gbps, strict.Gbps),
		bypass.Gbps, stats.Ratio(bypass.Gbps, strict.Gbps))
	return b.String()
}
