package experiments

import (
	"errors"
	"fmt"
	"strings"

	"riommu/internal/core"
	"riommu/internal/device"
	"riommu/internal/driver"
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
	// BurstC: burst length -> rIOMMU cycles/packet (mlx stream).
	BurstC Grid[int, float64]
	// DeferC: flush batch size -> defer-mode cycles/packet.
	DeferC Grid[int, float64]
	// Prefetch: prefetching on (true) and off -> device-side table fetches.
	Prefetch Grid[bool, PrefetchPoint]
	// Overflows: flat-table size -> overflow count for a fixed live demand.
	Overflows Grid[uint32, int]
}

// PrefetchPoint is one prefetch setting's device-side flat-table fetch
// count and prediction rate.
type PrefetchPoint struct {
	Fetches uint64
	HitRate float64
}

// RunAblations measures all four sweeps, each fanned across cfg.Workers
// with one isolated simulation world per sweep point.
func RunAblations(cfg Config) (AblationsResult, error) {
	var res AblationsResult
	q := cfg.Quality
	streamOpts := workload.StreamOpts{
		Messages:       q.scale(80, 250),
		WarmupMessages: q.scale(40, 100),
	}
	var err error

	// 1. Burst-length sweep under rIOMMU.
	res.BurstC, err = runGrid(cfg, []int{1, 8, 32, 200}, func(burst int) (float64, error) {
		o := streamOpts
		o.TxBurst = burst
		r, err := workload.NetperfStream(sim.RIOMMU, device.ProfileMLX, o)
		return r.CyclesPerUnit, err
	})
	if err != nil {
		return res, err
	}

	// 2. Deferred-batch sweep.
	res.DeferC, err = runGrid(cfg, []int{1, 25, 250, 1000}, func(batch int) (float64, error) {
		o := streamOpts
		o.DeferBatch = batch
		r, err := workload.NetperfStream(sim.Defer, device.ProfileMLX, o)
		return r.CyclesPerUnit, err
	})
	if err != nil {
		return res, err
	}

	// 3. Prefetch on/off: device-side flat-table fetch counts for the same
	// sequential workload.
	res.Prefetch, err = runGrid(cfg, []bool{true, false}, func(on bool) (PrefetchPoint, error) {
		var cell PrefetchPoint
		sys, err := sim.New(sim.Spec{Mode: sim.RIOMMU, MemPages: workload.MemPages})
		if err != nil {
			return cell, err
		}
		defer sys.Close()
		sys.RHW.DisablePrefetch = !on
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
		cell.Fetches = st.TableFetches
		if st.PrefetchHits+st.TableFetches > 0 {
			cell.HitRate = float64(st.PrefetchHits) / float64(st.PrefetchHits+st.TableFetches)
		}
		return cell, sys.CheckLive(bdf, drv.Live())
	})
	if err != nil {
		return res, err
	}

	// 4. Ring sizing: demand L=64 concurrent mappings against flat tables
	// of various sizes; undersized tables overflow (legal; the driver must
	// slow down, §4).
	res.Overflows, err = runGrid(cfg, []uint32{16, 32, 64, 128}, func(n uint32) (int, error) {
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
	return res, err
}

// Cells emits every sweep point of the four ablations.
func (r AblationsResult) Cells() []Cell {
	out := r.BurstC.cells("ablations", func(n int, c float64) (string, map[string]float64) {
		return fmt.Sprintf("burst/%d", n), map[string]float64{"cycles_per_packet": c}
	})
	out = append(out, r.DeferC.cells("ablations", func(n int, c float64) (string, map[string]float64) {
		return fmt.Sprintf("defer-batch/%d", n), map[string]float64{"cycles_per_packet": c}
	})...)
	out = append(out, r.Prefetch.cells("ablations", func(on bool, p PrefetchPoint) (string, map[string]float64) {
		if !on {
			return "prefetch/off", map[string]float64{"table_fetches": float64(p.Fetches)}
		}
		return "prefetch/on", map[string]float64{
			"table_fetches": float64(p.Fetches),
			"hit_rate":      p.HitRate,
		}
	})...)
	return append(out, r.Overflows.cells("ablations", func(n uint32, overflows int) (string, map[string]float64) {
		return fmt.Sprintf("ring-size/%d", n), map[string]float64{"overflows": float64(overflows)}
	})...)
}

// Render prints all four sweeps.
func (r AblationsResult) Render() string {
	var b strings.Builder

	t := stats.NewTable("Ablation A. rIOMMU completion-burst length vs cycles/packet (mlx stream)",
		"burst", "C (cycles/pkt)", "inval cost amortized over")
	for i, n := range r.BurstC.Keys {
		t.Row(fmt.Sprintf("%d", n), r.BurstC.Results[i], fmt.Sprintf("%d unmaps", n))
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	t = stats.NewTable("Ablation B. defer-mode flush batch vs cycles/packet (vulnerability window grows with batch)",
		"batch", "C (cycles/pkt)")
	for i, n := range r.DeferC.Keys {
		t.Row(fmt.Sprintf("%d", n), r.DeferC.Results[i])
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	on, off := r.Prefetch.At(true), r.Prefetch.At(false)
	t = stats.NewTable("Ablation C. rIOTLB next-entry prefetch (device-side flat-table fetches)",
		"config", "DRAM fetches", "prediction rate")
	t.Row("prefetch on", fmt.Sprintf("%d", on.Fetches), fmt.Sprintf("%.2f", on.HitRate))
	t.Row("prefetch off", fmt.Sprintf("%d", off.Fetches), "-")
	b.WriteString(t.String())
	b.WriteString("\n")

	t = stats.NewTable("Ablation D. flat-table size N vs overflow for L=64 live mappings (overflow is legal, §4)",
		"N", "overflows")
	for i, n := range r.Overflows.Keys {
		t.Row(fmt.Sprintf("%d", n), fmt.Sprintf("%d", r.Overflows.Results[i]))
	}
	b.WriteString(t.String())
	return b.String()
}
