package experiments

import (
	"errors"
	"fmt"
	"strings"

	"riommu/internal/core"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/parallel"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// AblationsResult quantifies the design choices DESIGN.md calls out:
//
//   - Burst length: §4 claims ~200-iteration completion loops make the
//     amortized rIOTLB invalidation cost negligible. The sweep shows C as
//     the burst shrinks toward the latency-sensitive regime.
//   - Deferred batch: Linux amortizes one global flush per 250 unmaps; the
//     sweep shows the safety window size against the cycles it buys.
//   - Prefetch: §4 notes the design works without the prefetched next rPTE;
//     the sweep shows the device-side fetch traffic it saves.
//   - Ring sizing: §4 requires N >= L; the sweep shows overflow behaviour
//     when the flat table is undersized.
type AblationsResult struct {
	// BurstSweep: burst length -> rIOMMU cycles/packet (mlx stream).
	BurstLens []int
	BurstC    map[int]float64
	// DeferSweep: batch size -> defer-mode cycles/packet.
	DeferBatches []int
	DeferC       map[int]float64
	// Prefetch: device-side table fetches with and without prefetching.
	FetchesWith, FetchesWithout uint64
	PrefetchHitRate             float64
	// RingSizing: flat-table size -> overflow count for a fixed live demand.
	RingSizes []uint32
	Overflows map[uint32]int
}

// RunAblations measures all four sweeps, each fanned across cfg.Workers
// with one isolated simulation world per sweep point.
func RunAblations(cfg Config) (AblationsResult, error) {
	res := AblationsResult{
		BurstC:    map[int]float64{},
		DeferC:    map[int]float64{},
		Overflows: map[uint32]int{},
	}
	q := cfg.Quality
	streamOpts := workload.StreamOpts{
		Messages:       q.scale(80, 250),
		WarmupMessages: q.scale(40, 100),
	}

	// 1. Burst-length sweep under rIOMMU.
	res.BurstLens = []int{1, 8, 32, 200}
	burstC, err := parallel.Map(cfg.Workers, res.BurstLens, func(_ int, burst int) (float64, error) {
		o := streamOpts
		o.TxBurst = burst
		r, err := workload.NetperfStream(sim.RIOMMU, device.ProfileMLX, o)
		return r.CyclesPerUnit, err
	})
	if err != nil {
		return res, err
	}
	for i, burst := range res.BurstLens {
		res.BurstC[burst] = burstC[i]
	}

	// 2. Deferred-batch sweep.
	res.DeferBatches = []int{1, 25, 250, 1000}
	deferC, err := parallel.Map(cfg.Workers, res.DeferBatches, func(_ int, batch int) (float64, error) {
		o := streamOpts
		o.DeferBatch = batch
		r, err := workload.NetperfStream(sim.Defer, device.ProfileMLX, o)
		return r.CyclesPerUnit, err
	})
	if err != nil {
		return res, err
	}
	for i, batch := range res.DeferBatches {
		res.DeferC[batch] = deferC[i]
	}

	// 3. Prefetch on/off: device-side flat-table fetch counts for the same
	// sequential workload.
	type prefetchCell struct {
		fetches uint64
		hitRate float64
	}
	prefetchCells, err := parallel.Map(cfg.Workers, []bool{false, true}, func(_ int, disable bool) (prefetchCell, error) {
		var cell prefetchCell
		sys, err := sim.New(sim.Spec{Mode: sim.RIOMMU, MemPages: workload.MemPages})
		if err != nil {
			return cell, err
		}
		defer sys.Close()
		sys.RHW.DisablePrefetch = disable
		bdf := pci.NewBDF(0, 3, 0)
		drv, _, err := sys.AttachNIC(device.ProfileBRCM, bdf)
		if err != nil {
			return cell, err
		}
		payload := make([]byte, 1000)
		for i := 0; i < q.scale(500, 2000); i++ {
			if err := drv.Send(payload); err != nil {
				return cell, err
			}
			if i%100 == 99 {
				if _, err := drv.PumpTx(100); err != nil {
					return cell, err
				}
				if _, err := drv.ReapTx(); err != nil {
					return cell, err
				}
			}
		}
		st := sys.RHW.Stats()
		cell.fetches = st.TableFetches
		if st.PrefetchHits+st.TableFetches > 0 {
			cell.hitRate = float64(st.PrefetchHits) / float64(st.PrefetchHits+st.TableFetches)
		}
		return cell, sys.CheckLive(bdf, drv.Live())
	})
	if err != nil {
		return res, err
	}
	res.FetchesWith = prefetchCells[0].fetches
	res.PrefetchHitRate = prefetchCells[0].hitRate
	res.FetchesWithout = prefetchCells[1].fetches

	// 4. Ring sizing: demand L=64 concurrent mappings against flat tables
	// of various sizes; undersized tables overflow (legal; the driver must
	// slow down, §4).
	res.RingSizes = []uint32{16, 32, 64, 128}
	overflowCells, err := parallel.Map(cfg.Workers, res.RingSizes, func(_ int, n uint32) (int, error) {
		sys, err := sim.New(sim.Spec{Mode: sim.RIOMMU, MemPages: 1 << 13})
		if err != nil {
			return 0, err
		}
		defer sys.Close()
		bdf := pci.NewBDF(0, 3, 0)
		prot, err := sys.ProtectionFor(bdf, []uint32{2, n, n})
		if err != nil {
			return 0, err
		}
		f, err := sys.Mem.AllocFrame()
		if err != nil {
			return 0, err
		}
		overflows := 0
		for i := 0; i < 64; i++ {
			_, err := prot.Map(driver.RingTx, f.PA(), 64, pci.DirToDevice)
			if errors.Is(err, core.ErrOverflow) {
				overflows++
				continue
			}
			if err != nil {
				return 0, err
			}
		}
		return overflows, sys.CheckLive(bdf, 64-overflows)
	})
	if err != nil {
		return res, err
	}
	for i, n := range res.RingSizes {
		res.Overflows[n] = overflowCells[i]
	}
	return res, nil
}

// Cells emits every sweep point of the four ablations.
func (r AblationsResult) Cells() []Cell {
	var out []Cell
	for _, n := range r.BurstLens {
		out = append(out, C("ablations", fmt.Sprintf("burst/%d", n), map[string]float64{
			"cycles_per_packet": r.BurstC[n],
		}))
	}
	for _, n := range r.DeferBatches {
		out = append(out, C("ablations", fmt.Sprintf("defer-batch/%d", n), map[string]float64{
			"cycles_per_packet": r.DeferC[n],
		}))
	}
	out = append(out,
		C("ablations", "prefetch/on", map[string]float64{
			"table_fetches": float64(r.FetchesWith),
			"hit_rate":      r.PrefetchHitRate,
		}),
		C("ablations", "prefetch/off", map[string]float64{
			"table_fetches": float64(r.FetchesWithout),
		}))
	for _, n := range r.RingSizes {
		out = append(out, C("ablations", fmt.Sprintf("ring-size/%d", n), map[string]float64{
			"overflows": float64(r.Overflows[n]),
		}))
	}
	return out
}

// Render prints all four sweeps.
func (r AblationsResult) Render() string {
	var b strings.Builder

	t := stats.NewTable("Ablation A. rIOMMU completion-burst length vs cycles/packet (mlx stream)",
		"burst", "C (cycles/pkt)", "inval cost amortized over")
	for _, n := range r.BurstLens {
		t.Row(fmt.Sprintf("%d", n), r.BurstC[n], fmt.Sprintf("%d unmaps", n))
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	t = stats.NewTable("Ablation B. defer-mode flush batch vs cycles/packet (vulnerability window grows with batch)",
		"batch", "C (cycles/pkt)")
	for _, n := range r.DeferBatches {
		t.Row(fmt.Sprintf("%d", n), r.DeferC[n])
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	t = stats.NewTable("Ablation C. rIOTLB next-entry prefetch (device-side flat-table fetches)",
		"config", "DRAM fetches", "prediction rate")
	t.Row("prefetch on", fmt.Sprintf("%d", r.FetchesWith), fmt.Sprintf("%.2f", r.PrefetchHitRate))
	t.Row("prefetch off", fmt.Sprintf("%d", r.FetchesWithout), "-")
	b.WriteString(t.String())
	b.WriteString("\n")

	t = stats.NewTable("Ablation D. flat-table size N vs overflow for L=64 live mappings (overflow is legal, §4)",
		"N", "overflows")
	for _, n := range r.RingSizes {
		t.Row(fmt.Sprintf("%d", n), fmt.Sprintf("%d", r.Overflows[n]))
	}
	b.WriteString(t.String())
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "ablations",
		Title: "Ablations: burst length, defer batch, prefetching, ring sizing",
		Paper: "design-choice sweeps behind §4's claims: ~200-iteration bursts amortize invalidations; defer batches 250; prefetch optional; N >= L",
		Run:   wrap(RunAblations),
	})
}
