package riommu

// Wall-clock benchmarks of the simulator's hot paths, plus allocation
// regression tests that pin those paths at zero allocations per operation.
//
// Unlike bench_test.go — whose ReportMetric columns are *virtual* cycles and
// must stay byte-identical across optimizations — this file measures the
// simulator itself: ns/op and allocs/op of the map/unmap flows, the radix
// walk, the IOTLB hit path, and a whole campaign cell. The committed baseline
// lives in BENCH_wallclock.txt; `make bench-wallclock` compares a fresh run
// against it with cmd/benchdiff.
//
//	go test -run TestHotPathAllocs -bench 'MapUnmap|Walk|IOTLB|OracleVerify|CampaignCell'

import (
	"testing"

	"riommu/internal/audit"
	"riommu/internal/campaign"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/iommu"
	"riommu/internal/iotlb"
	"riommu/internal/iova"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/traffic"

	baselinedrv "riommu/internal/baseline"
)

// newBaselineDriver builds a strict/defer-mode driver over fresh memory.
func newBaselineDriver(b *testing.B, mode baselinedrv.Mode) (*baselinedrv.Driver, *mem.PhysMem) {
	b.Helper()
	mm := mustMem(b, 4096*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, err := pagetable.NewHierarchy(mm)
	if err != nil {
		b.Fatal(err)
	}
	hw := iommu.New(clk, &model, hier, 0)
	drv, err := baselinedrv.New(mode, clk, &model, mm, hw, pci.NewBDF(0, 3, 0), false)
	if err != nil {
		b.Fatal(err)
	}
	return drv, mm
}

func benchMapUnmap(b *testing.B, mode baselinedrv.Mode) {
	drv, mm := newBaselineDriver(b, mode)
	f, _ := mm.AllocFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iovaAddr, err := drv.Map(0, f.PA(), 1500, pci.DirFromDevice)
		if err != nil {
			b.Fatal(err)
		}
		if err := drv.Unmap(0, iovaAddr, 1500, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapUnmapStrict times one strict-mode map+unmap pair (Figure 4 +
// Figure 6 with inline per-entry invalidation).
func BenchmarkMapUnmapStrict(b *testing.B) { benchMapUnmap(b, baselinedrv.Strict) }

// BenchmarkMapUnmapDefer times the deferred-invalidation pair (bulk flush
// every 250 unmaps amortized into the mean).
func BenchmarkMapUnmapDefer(b *testing.B) { benchMapUnmap(b, baselinedrv.Defer) }

// BenchmarkMapUnmapRiommu times the rIOMMU driver's map+unmap pair (flat
// rPTE write, end-of-burst invalidation every 200 pairs).
func BenchmarkMapUnmapRiommu(b *testing.B) {
	mm := mustMem(b, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hw := core.New(clk, &model, mm)
	drv, err := core.NewDriver(clk, &model, mm, hw, pci.NewBDF(0, 3, 0), []uint32{1024}, true)
	if err != nil {
		b.Fatal(err)
	}
	f, _ := mm.AllocFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iovaAddr, err := drv.Map(0, f.PA(), 1500, pci.DirFromDevice)
		if err != nil {
			b.Fatal(err)
		}
		if err := drv.Unmap(0, iovaAddr, 0, i%200 == 199); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalk times a warm 4-level radix walk (tables resident, IOTLB not
// consulted) — the page-walker inner loop of the baseline miss path.
func BenchmarkWalk(b *testing.B) {
	mm := mustMem(b, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	sp, err := pagetable.NewSpace(mm, clk, &model, true)
	if err != nil {
		b.Fatal(err)
	}
	f, _ := mm.AllocFrame()
	const iovaAddr = 42 << mem.PageShift
	if err := sp.Map(iovaAddr, f, pci.DirBidi); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sp.Walk(iovaAddr, pci.DirFromDevice); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIOTLB times the baseline IOMMU's translation hit path: IOTLB
// lookup with LRU promotion, permission check, address composition.
func BenchmarkIOTLB(b *testing.B) {
	mm := mustMem(b, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, err := pagetable.NewHierarchy(mm)
	if err != nil {
		b.Fatal(err)
	}
	hw := iommu.New(clk, &model, hier, 0)
	bdf := pci.NewBDF(0, 5, 0)
	sp, err := pagetable.NewSpace(mm, clk, &model, true)
	if err != nil {
		b.Fatal(err)
	}
	if err := hier.Attach(bdf, sp); err != nil {
		b.Fatal(err)
	}
	f, _ := mm.AllocFrame()
	const iovaAddr = 7 << mem.PageShift
	if err := sp.Map(iovaAddr, f, pci.DirBidi); err != nil {
		b.Fatal(err)
	}
	if _, err := hw.Translate(bdf, iovaAddr, 64, pci.DirFromDevice); err != nil {
		b.Fatal(err) // warm the entry
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.Translate(bdf, iovaAddr, 64, pci.DirFromDevice); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReadU64 times the DMA engine's aligned-quadword fast path:
// descriptor and completion reads are 8-byte aligned and never cross a page,
// so ReadU64 does one translate + audit + copy without entering the chunked
// transfer loop. This pins the fast path against regressions (e.g. the chunk
// loop creeping back in).
func BenchmarkEngineReadU64(b *testing.B) {
	mm := mustMem(b, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, err := pagetable.NewHierarchy(mm)
	if err != nil {
		b.Fatal(err)
	}
	hw := iommu.New(clk, &model, hier, 0)
	bdf := pci.NewBDF(0, 5, 0)
	sp, err := pagetable.NewSpace(mm, clk, &model, true)
	if err != nil {
		b.Fatal(err)
	}
	if err := hier.Attach(bdf, sp); err != nil {
		b.Fatal(err)
	}
	f, _ := mm.AllocFrame()
	const iovaAddr = 7 << mem.PageShift
	if err := sp.Map(iovaAddr, f, pci.DirBidi); err != nil {
		b.Fatal(err)
	}
	eng := dma.NewEngine(mm, hw)
	if _, err := eng.ReadU64(bdf, iovaAddr); err != nil {
		b.Fatal(err) // warm the IOTLB entry
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ReadU64(bdf, iovaAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignCell times one complete fault-campaign NIC cell — system
// construction, supervised rounds, teardown — the unit the campaign grid and
// CI chaos gate scale by.
func BenchmarkCampaignCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := campaign.Options{
			Seed:    42,
			Rates:   []float64{0},
			Modes:   []sim.Mode{sim.RIOMMU},
			Rounds:  10,
			Workers: 1,
		}
		if _, err := campaign.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrafficCell times one complete fleet-traffic churn cell — engine
// construction, warmup and measured ticks over a mixed kernel/bypass
// connection table, teardown — the unit the figS2 sweep and the campaign
// -churn axis scale by.
func BenchmarkTrafficCell(b *testing.B) {
	cfg := traffic.Config{
		Mode:            sim.RIOMMU,
		Profile:         device.ProfileMLX,
		Seed:            42,
		TableSlots:      16,
		MeanFlowPackets: 4,
		BypassPermille:  250,
		Ticks:           6,
		WarmupTicks:     2,
		MsgsPerTick:     4,
		IncastEvery:     3,
		IncastFan:       6,
		Diurnal:         true,
		Audit:           true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The audited Rx ring of the oracle benchmark: an mlx-sized ring on one
// device, its descriptor area and its buffers at separate IOVA ranges.
const (
	oracleRingEntries = 8192
	oracleDescIOVA    = 0x1000_0000
	oracleBufIOVA     = 0x2000_0000
)

var oracleBDF = pci.NewBDF(0, 3, 0)

// newOracleRing returns an audit oracle holding the ring's live set: a
// persistent mapping of its 16-byte descriptors plus one 2 KiB buffer per
// entry, each on its own IOVA page as the baseline allocators place them.
func newOracleRing() *audit.Oracle {
	orc := audit.NewOracle("strict", &cycles.Clock{})
	orc.OnMap(oracleBDF, oracleDescIOVA, 0x80_0000, oracleRingEntries*16, pci.DirBidi)
	for i := uint64(0); i < oracleRingEntries; i++ {
		orc.OnMap(oracleBDF, oracleBufIOVA+i<<mem.PageShift, mem.PA(0x100_0000+i<<mem.PageShift), 2048, pci.DirFromDevice)
	}
	return orc
}

// verifyRingChunk judges DMA chunk i of the Rx pattern: even chunks fetch
// a descriptor, odd chunks write the packet into that descriptor's buffer,
// so consecutive chunks never land in the same mapping.
func verifyRingChunk(orc *audit.Oracle, i uint64) {
	e := i / 2 % oracleRingEntries
	if i%2 == 0 {
		orc.VerifyDMA(oracleBDF, oracleDescIOVA+e*16, mem.PA(0x80_0000+e*16), 16, pci.DirToDevice)
		return
	}
	orc.VerifyDMA(oracleBDF, oracleBufIOVA+e<<mem.PageShift, mem.PA(0x100_0000+e<<mem.PageShift), 1500, pci.DirFromDevice)
}

// BenchmarkOracleVerify times the audit oracle's judgment of one DMA chunk
// against an 8K-buffer live set, alternating descriptor and buffer chunks:
// the shape of every Rx packet on the map/unmap storm.
func BenchmarkOracleVerify(b *testing.B) {
	orc := newOracleRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyRingChunk(orc, uint64(i))
	}
	b.StopTimer()
	if orc.Violations != 0 {
		b.Fatalf("clean Rx pattern flagged: %v", orc.Events)
	}
}

// TestHotPathAllocs pins the steady-state translation hot paths at zero
// allocations per operation: a regression here silently costs wall-clock
// across every experiment, so it hard-fails CI (satellite 3, PR 4).
func TestHotPathAllocs(t *testing.T) {
	t.Run("iotlb-hit", func(t *testing.T) {
		tlb := iotlb.New(64)
		key := iotlb.Key{BDF: pci.NewBDF(0, 3, 0), IOVAPFN: 7}
		tlb.Insert(key, iotlb.Entry{Frame: 9, Perm: pci.DirBidi})
		if n := testing.AllocsPerRun(200, func() {
			if _, ok := tlb.Lookup(key); !ok {
				t.Fatal("lookup missed")
			}
		}); n != 0 {
			t.Errorf("IOTLB hit allocates %.1f objects per op, want 0", n)
		}
	})

	t.Run("riotlb-hit", func(t *testing.T) {
		mm, err := mem.New(1024 * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		clk := &cycles.Clock{}
		model := cycles.DefaultModel()
		hw := core.New(clk, &model, mm)
		bdf := pci.NewBDF(0, 3, 0)
		drv, err := core.NewDriver(clk, &model, mm, hw, bdf, []uint32{64}, true)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := mm.AllocFrame()
		iovaAddr, err := drv.Map(0, f.PA(), 1500, pci.DirFromDevice)
		if err != nil {
			t.Fatal(err)
		}
		iv := core.IOVA(iovaAddr)
		if _, err := hw.Rtranslate(bdf, iv, pci.DirFromDevice); err != nil {
			t.Fatal(err) // warm the rIOTLB entry
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := hw.Rtranslate(bdf, iv, pci.DirFromDevice); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("rIOTLB hit allocates %.1f objects per op, want 0", n)
		}
	})

	t.Run("warm-radix-walk", func(t *testing.T) {
		mm, err := mem.New(1024 * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		clk := &cycles.Clock{}
		model := cycles.DefaultModel()
		sp, err := pagetable.NewSpace(mm, clk, &model, true)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := mm.AllocFrame()
		const iovaAddr = 42 << mem.PageShift
		if err := sp.Map(iovaAddr, f, pci.DirBidi); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, _, err := sp.Walk(iovaAddr, pci.DirFromDevice); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("warm radix walk allocates %.1f objects per op, want 0", n)
		}
	})

	t.Run("iova-recycle", func(t *testing.T) {
		clk := &cycles.Clock{}
		model := cycles.DefaultModel()
		for _, tc := range []struct {
			name  string
			alloc iova.Allocator
		}{
			{"const", iova.NewConst(clk, &model, iova.DMA32PFN-1)},
			{"linux", iova.NewLinux(clk, &model, iova.DMA32PFN-1)},
		} {
			// Warm: the first alloc/free carves the range and sizes the
			// recycle stacks; steady state must then be allocation-free.
			pfn, err := tc.alloc.Alloc(1)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := tc.alloc.Free(pfn); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if n := testing.AllocsPerRun(200, func() {
				p, err := tc.alloc.Alloc(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.alloc.Free(p); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s IOVA alloc/free recycle allocates %.1f objects per op, want 0", tc.name, n)
			}
		}
	})

	t.Run("oracle-verify", func(t *testing.T) {
		// hit: chunks that land in a live mapping (the Rx pattern above).
		// miss: chunks that land in none, judged stale or unmapped. The
		// warm-up fills the bounded event log, whose appends allocate.
		orc := newOracleRing()
		var i uint64
		if n := testing.AllocsPerRun(200, func() {
			verifyRingChunk(orc, i)
			i++
		}); n != 0 || orc.Violations != 0 {
			t.Errorf("oracle verify hit allocates %.1f objects per op (violations %d), want 0", n, orc.Violations)
		}
		orc.OnUnmap(oracleBDF, oracleBufIOVA)
		miss := func() {
			orc.VerifyDMA(oracleBDF, oracleBufIOVA+i%2*0x7000_0000, 0, 64, pci.DirFromDevice)
			i++
		}
		for range 64 {
			miss()
		}
		if n := testing.AllocsPerRun(200, miss); n != 0 {
			t.Errorf("oracle verify miss allocates %.1f objects per op, want 0", n)
		}
		if orc.ByReason[audit.ReasonStale] == 0 || orc.ByReason[audit.ReasonUnmapped] == 0 {
			t.Errorf("misses not judged stale and unmapped: %v", orc.ByReason)
		}
	})

	t.Run("iova-churn-storm", func(t *testing.T) {
		// Connection-churn shape: a window of live heavy-tailed ranges with
		// interleaved opens and closes, not a single ping-ponged size. Once
		// one storm has warmed the per-size free stacks, the constant-time
		// allocator's steady state must stay allocation-free.
		clk := &cycles.Clock{}
		model := cycles.DefaultModel()
		alloc := iova.NewConst(clk, &model, iova.DMA32PFN-1)
		rng := uint64(0x5eed)
		next := func() uint64 {
			rng += 0x9E3779B97F4A7C15
			z := rng
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return z ^ (z >> 31)
		}
		const window = 64
		live := make([]uint64, 0, window)
		step := func() {
			p, err := alloc.Alloc(1 + next()%4)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
			if len(live) >= window {
				j := int(next() % uint64(len(live)))
				if err := alloc.Free(live[j]); err != nil {
					t.Fatal(err)
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for i := 0; i < 4*window; i++ {
			step() // warm storm: carve the working set, size the stacks
		}
		if n := testing.AllocsPerRun(200, step); n != 0 {
			t.Errorf("warm churn-storm step allocates %.1f objects per op, want 0", n)
		}
	})
}
