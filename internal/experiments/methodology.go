package experiments

import (
	"fmt"

	"riommu/internal/device"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// MethodologyResult reproduces the §5.1 validation of the paper's simulation
// methodology using the two pass-through modes:
//
//   - HWpt: the IOMMU translates each IOVA to the identical physical address
//     without consulting the IOTLB or page tables.
//   - SWpt: a real page table maps all of physical memory identity, so every
//     DMA misses and walks like a genuine translation.
//
// The paper found: (1) RR performance of HWpt and SWpt is identical — and
// identical to no-IOMMU — because stack/interrupt latencies hide the IOTLB
// miss penalty entirely; (2) stream throughput of both trails no-IOMMU by
// ~10%, caused purely by ~200 cycles of kernel DMA-API abstraction code per
// packet, not by translation activity. Together these justify simulating
// IOMMU proposals by spending CPU cycles alone.
type MethodologyResult struct {
	// One row per mode: none, hwpt, swpt.
	Grid[sim.Mode, MethodologyRow]

	// SWptMisses counts the device-side IOTLB misses SWpt provokes — real
	// walks that nonetheless do not move the throughput needle.
	SWptMisses uint64
}

// MethodologyRow is one mode's stream throughput and cycles per packet and
// its RR round-trip time.
type MethodologyRow struct {
	StreamGbps, StreamC, RRMicros float64
}

// RunMethodology measures stream and RR under none/HWpt/SWpt, one cell per
// mode, then counts the SWpt walks in a short run of its own.
func RunMethodology(cfg Config) (MethodologyResult, error) {
	q := cfg.Quality
	streamOpts := workload.StreamOpts{Messages: q.scale(80, 250), WarmupMessages: q.scale(30, 80)}
	rrOpts := workload.RROpts{Transactions: q.scale(300, 1500), Warmup: q.scale(80, 200)}
	g, err := runGrid(cfg, []sim.Mode{sim.None, sim.HWpt, sim.SWpt}, func(m sim.Mode) (MethodologyRow, error) {
		st, err := workload.NetperfStream(m, device.ProfileMLX, streamOpts)
		if err != nil {
			return MethodologyRow{}, err
		}
		rr, err := netperfRR(cfg, m, device.ProfileMLX, rrOpts)
		return MethodologyRow{
			StreamGbps: st.Throughput,
			StreamC:    st.CyclesPerUnit,
			RRMicros:   rr.LatencyMicros,
		}, err
	})
	if err != nil {
		return MethodologyResult{}, err
	}
	misses, err := swptMisses()
	return MethodologyResult{Grid: g, SWptMisses: misses}, err
}

// swptMisses sends 256 packets through an SWpt world and returns the IOTLB
// misses, each a real page-table walk, that they provoke.
func swptMisses() (uint64, error) {
	sys, err := sim.New(sim.Spec{Mode: sim.SWpt, MemPages: workload.MemPages})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	drv, _, err := sys.AttachNIC(device.ProfileMLX, workload.NICBDF)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 1000)
	for i := 0; i < 256; i++ {
		if err := drv.Send(payload); err != nil {
			return 0, err
		}
	}
	if _, err := drv.PumpTx(256); err != nil {
		return 0, err
	}
	if _, err := drv.ReapTx(); err != nil {
		return 0, err
	}
	return sys.BaseHW.TLB().Stats().Misses, nil
}

// Cells emits the per-mode validation points.
func (r MethodologyResult) Cells() []Cell {
	out := r.cells("methodology", func(m sim.Mode, row MethodologyRow) (string, map[string]float64) {
		return m.String(), map[string]float64{
			"stream_gbps":       row.StreamGbps,
			"cycles_per_packet": row.StreamC,
			"rr_rtt_us":         row.RRMicros,
		}
	})
	return append(out, C("methodology", "swpt-misses", map[string]float64{
		"iotlb_misses": float64(r.SWptMisses),
	}))
}

// Render prints the validation table.
func (r MethodologyResult) Render() string {
	t := stats.NewTable(
		"Sec 5.1. Methodology validation: pass-through modes vs no IOMMU (mlx)",
		"mode", "stream Gbps", "C (cy/pkt)", "RR rtt (us)")
	for i, m := range r.Keys {
		row := r.Results[i]
		t.Row(m.String(), row.StreamGbps, row.StreamC, row.RRMicros)
	}
	out := t.String()
	out += fmt.Sprintf("HWpt/none stream = %.2f (paper ~0.90: ~200 abstraction cycles/packet)\n",
		r.At(sim.HWpt).StreamGbps/r.At(sim.None).StreamGbps)
	out += fmt.Sprintf("SWpt provoked %d real IOTLB misses/walks without moving throughput (= HWpt)\n",
		r.SWptMisses)
	return out
}
