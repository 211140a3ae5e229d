package riommu

// One benchmark per table and figure of the paper's evaluation, plus
// per-operation microbenchmarks of the competing map/unmap primitives.
//
// The experiment benchmarks report the headline quantity of their
// table/figure through b.ReportMetric (virtual cycles or ratios); wall-clock
// ns/op measures only the simulator itself. Run with:
//
//	go test -bench=. -benchmem

import (
	"testing"

	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/experiments"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/workload"
)

// BenchmarkTable1 regenerates the (un)map cycle breakdown and reports the
// strict-mode IOVA-allocation cost (the paper's surprise finding).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.At(sim.Strict).MapAlloc, "strict-alloc-vcycles")
		b.ReportMetric(r.At(sim.Strict).UnmapInv, "strict-inv-vcycles")
	}
}

// BenchmarkFigure7 regenerates the per-packet cost stacks and reports
// C_strict/C_none (the paper's ~9.4x).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure7(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.At(sim.Strict).Total/r.CNone, "Cstrict/Cnone")
		b.ReportMetric(r.CNone, "Cnone-vcycles")
	}
}

// BenchmarkFigure8 regenerates the model-validation sweep and reports the
// worst model error across all points.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure8(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, p := range append(append([]experiments.Figure8Point{}, r.Sweep...), r.Modes...) {
			if p.ModelGbs == 0 {
				continue
			}
			e := (p.MeasuredGbs - p.ModelGbs) / p.ModelGbs
			if e < 0 {
				e = -e
			}
			if e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst*100, "worst-model-err-%")
	}
}

// benchmarkStream is the shared driver for the Figure 12 stream panels.
func benchmarkStream(b *testing.B, profile device.NICProfile, mode sim.Mode) workload.Result {
	b.Helper()
	r, err := workload.NetperfStream(mode, profile, workload.StreamOpts{Messages: 80, WarmupMessages: 40})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFigure12MLXStream reproduces the top-left panel's headline:
// riommu vs strict vs none throughput on the 40 Gbps NIC.
func BenchmarkFigure12MLXStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		strict := benchmarkStream(b, device.ProfileMLX, sim.Strict)
		riommu := benchmarkStream(b, device.ProfileMLX, sim.RIOMMU)
		none := benchmarkStream(b, device.ProfileMLX, sim.None)
		b.ReportMetric(riommu.Throughput/strict.Throughput, "riommu/strict")
		b.ReportMetric(riommu.Throughput/none.Throughput, "riommu/none")
		b.ReportMetric(riommu.Throughput, "riommu-Gbps")
	}
}

// BenchmarkFigure12BRCMStream reproduces the bottom-left panel: everything
// but strict saturates the 10 GbE line; CPU becomes the metric.
func BenchmarkFigure12BRCMStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		strict := benchmarkStream(b, device.ProfileBRCM, sim.Strict)
		riommu := benchmarkStream(b, device.ProfileBRCM, sim.RIOMMU)
		none := benchmarkStream(b, device.ProfileBRCM, sim.None)
		b.ReportMetric(strict.Throughput, "strict-Gbps")
		b.ReportMetric(riommu.Throughput, "riommu-Gbps")
		b.ReportMetric(riommu.CPU/none.CPU, "riommu/none-cpu")
	}
}

// BenchmarkFigure12Apache covers the apache panels (1KB request rate).
func BenchmarkFigure12Apache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := workload.ApacheOpts{FileBytes: 1024, Requests: 80, Warmup: 20}
		strict, err := workload.Apache(sim.Strict, device.ProfileMLX, opts)
		if err != nil {
			b.Fatal(err)
		}
		riommu, err := workload.Apache(sim.RIOMMU, device.ProfileMLX, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(riommu.Throughput, "riommu-req/s")
		b.ReportMetric(riommu.Throughput/strict.Throughput, "riommu/strict")
	}
}

// BenchmarkFigure12Memcached covers the memcached panels.
func BenchmarkFigure12Memcached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := workload.MemcachedOpts{Operations: 400, Warmup: 120}
		strict, err := workload.Memcached(sim.Strict, device.ProfileMLX, opts)
		if err != nil {
			b.Fatal(err)
		}
		riommu, err := workload.Memcached(sim.RIOMMU, device.ProfileMLX, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(riommu.Throughput, "riommu-ops/s")
		b.ReportMetric(riommu.Throughput/strict.Throughput, "riommu/strict")
	}
}

// BenchmarkFigure12RR covers the request-response panels.
func BenchmarkFigure12RR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := workload.RROpts{Transactions: 300, Warmup: 80}
		strict, err := workload.NetperfRR(sim.Strict, device.ProfileMLX, opts)
		if err != nil {
			b.Fatal(err)
		}
		riommu, err := workload.NetperfRR(sim.RIOMMU, device.ProfileMLX, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(riommu.Throughput/strict.Throughput, "riommu/strict")
		b.ReportMetric(riommu.LatencyMicros, "riommu-rtt-us")
	}
}

// BenchmarkTable2 regenerates the full normalized matrix (expensive).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		key := experiments.BenchKey{Bench: "stream", NIC: "mlx"}
		b.ReportMetric(r.ThroughputRatio(key, sim.RIOMMU, sim.Strict), "mlx-stream-riommu/strict")
		b.ReportMetric(r.ThroughputRatio(key, sim.RIOMMU, sim.None), "mlx-stream-riommu/none")
	}
}

// BenchmarkTable3 regenerates the RR round-trip table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.At(experiments.Table3Key{NIC: "mlx", Mode: sim.Strict}), "mlx-strict-rtt-us")
		b.ReportMetric(r.At(experiments.Table3Key{NIC: "mlx", Mode: sim.None}), "mlx-none-rtt-us")
	}
}

// BenchmarkMissPenalty regenerates the §5.3 microbenchmark.
func BenchmarkMissPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMissPenalty(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MissPenaltyCycles, "miss-penalty-vcycles")
	}
}

// BenchmarkPrefetchers regenerates the §5.4 comparison.
func BenchmarkPrefetchers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPrefetchers(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		big := r.Histories[len(r.Histories)-1]
		b.ReportMetric(r.HitRates["markov"][big], "markov-hit-rate")
		b.ReportMetric(r.RIOTLBHitRate, "riotlb-hit-rate")
	}
}

// BenchmarkBonnie regenerates the §4 SATA applicability check.
func BenchmarkBonnie(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBonnie(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.At(sim.Strict).Throughput/r.At(sim.None).Throughput, "strict/none")
	}
}

// --- Microbenchmarks of the competing primitives themselves. ---

// BenchmarkRtranslate measures the rIOMMU hardware fast path (sequential
// translations served by the prefetched next rPTE).
func BenchmarkRtranslate(b *testing.B) {
	mm := mustMem(b, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hw := core.New(clk, &model, mm)
	bdf := pci.NewBDF(0, 3, 0)
	drv, err := core.NewDriver(clk, &model, mm, hw, bdf, []uint32{1024}, true)
	if err != nil {
		b.Fatal(err)
	}
	f, _ := mm.AllocFrame()
	iovas := make([]core.IOVA, 512)
	for i := range iovas {
		v, err := drv.Map(0, f.PA(), 1500, pci.DirFromDevice)
		if err != nil {
			b.Fatal(err)
		}
		iovas[i] = core.IOVA(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.Rtranslate(bdf, iovas[i%len(iovas)], pci.DirFromDevice); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathology regenerates the §3.2 allocator-pathology sweep.
func BenchmarkPathology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPathology(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		last := r.Results[len(r.Results)-1]
		b.ReportMetric(last.AvgAllocCycles, "alloc-vcycles@8k-live")
		b.ReportMetric(float64(last.MaxWalkNodes), "worst-walk-nodes")
	}
}

// BenchmarkAblations regenerates the design-choice sweeps.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblations(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BurstC.At(1)/r.BurstC.At(200), "burst1/burst200-C")
		b.ReportMetric(r.Prefetch.At(true).HitRate, "prefetch-rate")
	}
}

// BenchmarkNVMe regenerates the NVMe extension experiment.
func BenchmarkNVMe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunNVMe(experiments.Serial(experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.At(sim.RIOMMU).KIOPS, "riommu-kiops")
		b.ReportMetric(r.At(sim.Strict).KIOPS, "strict-kiops")
	}
}
