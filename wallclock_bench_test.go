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
	"runtime"
	"slices"
	"testing"

	"riommu/internal/audit"
	"riommu/internal/campaign"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/iommu"
	"riommu/internal/iotlb"
	"riommu/internal/iova"
	"riommu/internal/mem"
	"riommu/internal/netstack"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/tenant"
	"riommu/internal/traffic"

	baselinedrv "riommu/internal/baseline"
)

// benchMapUnmap times one strict/defer-mode map+unmap pair over fresh
// memory; vcycles/pair is the virtual cost the pair charges the core.
func benchMapUnmap(b *testing.B, mode baselinedrv.Mode) {
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
	b.ReportMetric(float64(clk.Now())/float64(b.N), "vcycles/pair")
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
	b.ReportMetric(float64(clk.Now())/float64(b.N), "vcycles/pair")
}

// newBRCMQueue attaches one brcm NIC queue, whose 1024-entry Rx ring the
// attach fills, to a strict world at brcm's cost scale.
func newBRCMQueue(tb testing.TB, audit bool) (*sim.System, *driver.NICDriver) {
	p := device.ProfileBRCM
	sys, err := sim.New(sim.Spec{Mode: sim.Strict, MemPages: 1 << 15, Audit: audit, Model: cycles.DefaultModel().Scaled(p.CostScale)})
	if err != nil {
		tb.Fatal(err)
	}
	drv, _, err := sys.AttachNIC(p, pci.NewBDF(0, 3, 0))
	if err != nil {
		sys.Close()
		tb.Fatal(err)
	}
	return sys, drv
}

// BenchmarkNICReset times Recover of an audited strict brcm NIC queue with
// a full Rx ring: 1024 strict unmaps, each mirrored by the oracle, then a
// refill that maps the ring again. A fault campaign repeats this more than
// any other operation. vcycles/op is what one reset charges the core.
func BenchmarkNICReset(b *testing.B) {
	sys, drv := newBRCMQueue(b, true)
	defer sys.Close()
	start := sys.CPU.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drv.Recover(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.CPU.Now()-start)/float64(b.N), "vcycles/op")
}

// BenchmarkNetstackSend times netstack.(*Conn).SendPacket of one MSS on an
// unaudited strict brcm NIC in steady state: the stack's charge, the
// driver's Send, which maps the frame, and the Tx completion bursts, ack
// deliveries and Rx reaps the connection fires along the way. The warm-up
// runs two whole periods of those (3,200 packets: 16 Tx bursts of 200, 25
// Rx reaps of 16 acks, one per 8 packets) and a flush, and the flush after
// the timed packets is untimed. vcycles/op is what one timed packet
// charges the core. It rises with the op count, because the strict Linux
// IOVA allocator's gap search lengthens as its tree ages (map/iova-alloc
// ~1,390 → ~1,480 cycles a packet over the first 256,000 packets), so
// rows compare only at one -benchtime.
func BenchmarkNetstackSend(b *testing.B) {
	sys, drv := newBRCMQueue(b, false)
	defer sys.Close()
	conn := netstack.NewConn(sys.CPU, drv, netstack.DefaultParams(device.ProfileBRCM))
	mss := conn.Params().MSS
	for range 2 * 3200 {
		if err := conn.SendPacket(mss); err != nil {
			b.Fatal(err)
		}
	}
	if err := conn.Flush(); err != nil {
		b.Fatal(err)
	}
	start := sys.CPU.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.SendPacket(mss); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.CPU.Now()-start)/float64(b.N), "vcycles/op")
	if err := conn.Flush(); err != nil {
		b.Fatal(err)
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

// stage2Pages is the GPA working set of BenchmarkStage2Walk: twice the
// pages a domain's 512-entry stage-2 TLB holds.
const stage2Pages = 1024

// BenchmarkStage2Walk times a tenant domain's stage-2 resolution of a page
// its TLB does not hold: the TLB lookup that misses, the GPA→HPA radix walk
// and the insert that evicts the least recently used entry. The accesses
// sweep the working set in order, so after the untimed first sweep every
// access misses. vcycles/op is the virtual cost one resolution charges the
// hypervisor clock.
func BenchmarkStage2Walk(b *testing.B) {
	h, err := tenant.NewHost(64)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	d, err := h.AdoptSpace(stage2Pages)
	if err != nil {
		b.Fatal(err)
	}
	resolve := func(i int) {
		if _, err := d.Stage2(uint64(i%stage2Pages)<<mem.PageShift, 64, pci.DirFromDevice); err != nil {
			b.Fatal(err)
		}
	}
	for i := range stage2Pages {
		resolve(i)
	}
	start := h.Clk.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolve(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(h.Clk.Now()-start)/float64(b.N), "vcycles/op")
	if d.S2Hits != 0 {
		b.Fatalf("the sweep hit the stage-2 TLB %d times; every access should walk", d.S2Hits)
	}
}

// iovaChurnLive is the Rx band of the IOVA churn benchmark: single-page
// ranges that stay live, as a ring's posted buffers do.
const (
	iovaChurnBits = 12
	iovaChurnLive = 1 << iovaChurnBits
)

// BenchmarkIOVAChurn times each IOVA allocator under the Rx-refill churn of
// a strict world. One op frees a band range picked by a fixed hash of the op
// index and allocates its replacement, then allocates and frees one Tx page.
// In the Linux allocator the free resets the cached node above the freed
// range, the refill lands in its hole and is cached, and the Tx allocation
// then steps rb_prev over every band range below the hole to the gap under
// the band: the linear search behind Table 1's 3,986-cycle "iova alloc".
// vcycles/op is what the op charges the virtual clock; visits/op is the
// Linux gap search's node visits, and const, which never searches, reads 0.
// Both depend only on the op count, so runs of one -benchtime Nx agree.
func BenchmarkIOVAChurn(b *testing.B) {
	model := cycles.DefaultModel()
	for _, tc := range []struct {
		name   string
		new    func(*cycles.Clock) iova.Allocator
		visits func(iova.Allocator) uint64
	}{
		{"linux",
			func(clk *cycles.Clock) iova.Allocator { return iova.NewLinux(clk, &model, iova.DMA32PFN-1) },
			func(a iova.Allocator) uint64 { return a.(*iova.LinuxAllocator).TotalVisits }},
		{"const",
			func(clk *cycles.Clock) iova.Allocator { return iova.NewConst(clk, &model, iova.DMA32PFN-1) },
			func(iova.Allocator) uint64 { return 0 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			clk := &cycles.Clock{}
			a := tc.new(clk)
			band := make([]uint64, iovaChurnLive)
			for i := range band {
				p, err := a.Alloc(1)
				if err != nil {
					b.Fatal(err)
				}
				band[i] = p
			}
			op := func(i uint64) {
				j := i * 0x9E3779B97F4A7C15 >> (64 - iovaChurnBits) // a band index
				if err := a.Free(band[j]); err != nil {
					b.Fatal(err)
				}
				p, err := a.Alloc(1)
				if err != nil {
					b.Fatal(err)
				}
				band[j] = p
				tx, err := a.Alloc(1)
				if err != nil {
					b.Fatal(err)
				}
				if err := a.Free(tx); err != nil {
					b.Fatal(err)
				}
			}
			op(0) // carves the Tx page and sizes the recycle state
			start, visits := clk.Now(), tc.visits(a)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(uint64(i))
			}
			b.StopTimer()
			b.ReportMetric(float64(clk.Now()-start)/float64(b.N), "vcycles/op")
			b.ReportMetric(float64(tc.visits(a)-visits)/float64(b.N), "visits/op")
		})
	}
}

// engineBDF is the device behind the DMA engine benchmarks and allocation
// gate, engineIOVA the first of its mapped pages.
var engineBDF = pci.NewBDF(0, 5, 0)

const engineIOVA = 7 << mem.PageShift

// newMappedEngine returns a DMA engine behind a baseline IOMMU with pages
// consecutive IOVA pages from engineIOVA mapped read/write, one frame each.
func newMappedEngine(tb testing.TB, pages int) *dma.Engine {
	tb.Helper()
	mm := mustMem(tb, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, err := pagetable.NewHierarchy(mm)
	if err != nil {
		tb.Fatal(err)
	}
	hw := iommu.New(clk, &model, hier, 0)
	sp, err := pagetable.NewSpace(mm, clk, &model, true)
	if err != nil {
		tb.Fatal(err)
	}
	if err := hier.Attach(engineBDF, sp); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		f, err := mm.AllocFrame()
		if err != nil {
			tb.Fatal(err)
		}
		if err := sp.Map(engineIOVA+uint64(i)<<mem.PageShift, f, pci.DirBidi); err != nil {
			tb.Fatal(err)
		}
	}
	return dma.NewEngine(mm, hw)
}

// BenchmarkEngineReadU64 times a descriptor quadword read through the DMA
// engine's chunk loop on a warm IOTLB: one translate, audit check and copy,
// the shape of most of the simulator's DMAs.
func BenchmarkEngineReadU64(b *testing.B) {
	eng := newMappedEngine(b, 1)
	if _, err := eng.ReadU64(engineBDF, engineIOVA); err != nil {
		b.Fatal(err) // warm the IOTLB entry
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ReadU64(engineBDF, engineIOVA); err != nil {
			b.Fatal(err)
		}
	}
}

// The frame pattern of a churn world (figS2's 1M-connection kernel cell):
// its rings, buffers and tables hold ~8.2K single frames when
// traffic.NewEngine reserves one four-frame steering buffer for each of
// 2,048 connection slots, on 41,024 frames of memory.
const (
	churnWorldFrames  = 41024
	churnSingleFrames = 8192
	churnSteerSlots   = 2048
	churnSteerFrames  = 4
)

// BenchmarkAllocFrames times a churn world's frame reservations: the single
// frames, then every steering buffer's contiguous run. Building and
// releasing the memory is untimed, so allocs/op is 0.
func BenchmarkAllocFrames(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mm := mustMem(b, churnWorldFrames*mem.PageSize)
		b.StartTimer()
		for range churnSingleFrames {
			if _, err := mm.AllocFrame(); err != nil {
				b.Fatal(err)
			}
		}
		for range churnSteerSlots {
			if _, err := mm.AllocFrames(churnSteerFrames); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		mm.Release()
		b.StartTimer()
	}
}

// BenchmarkNewSystem times building and tearing down the world of a
// campaign NIC cell: a 128 MiB riommu system built from a Spec with fault
// injection, AttachNIC (which fills and maps the Rx ring), then Close. Its
// B/op and allocs/op are what each grid cell pays for its world.
func BenchmarkNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(sim.Spec{Mode: sim.RIOMMU, MemPages: 1 << 15, Inject: true, Faults: faults.UniformConfig(42, 0)})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sys.AttachNIC(device.ProfileBRCM, pci.NewBDF(0, 3, 0)); err != nil {
			b.Fatal(err)
		}
		sys.Close()
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
// connection table, the close's live-mapping check — the unit the figS2
// sweep and the campaign -churn axis scale by.
//
// As in BenchmarkTrafficTick, two untimed collections before each op empty
// the pool simulated memory recycles through, so every cell starts cold,
// and one untimed op before the timer starts keeps first-use
// initialisation out of the counts: allocs/op repeats at any -benchtime.
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
	op := func() {
		if _, err := traffic.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		op()
	}
}

// trafficTickPeriod is one diurnal day of the traffic engine: eight load
// phases of four ticks each.
const trafficTickPeriod = 32

// trafficTickConfig is BenchmarkTrafficTick's world: churn-shaped strict
// traffic on an mlx NIC with short rings.
func trafficTickConfig() traffic.Config {
	profile := device.ProfileMLX
	profile.RxEntries, profile.TxEntries = 256, 256
	return traffic.Config{
		Mode:            sim.Strict,
		Profile:         profile,
		Seed:            1,
		TableSlots:      16,
		MeanFlowPackets: 1,
		MsgsPerTick:     2,
		IncastEvery:     4,
		IncastFan:       6,
		Diurnal:         true,
	}
}

// BenchmarkTrafficTick times traffic.(*Engine).Tick alone over one diurnal
// period of a churn-shaped strict world: every packet closes its flow, so
// each one maps and unmaps a steering buffer, on the kernel path, with
// incast bursts. Short rings keep building and closing a world, untimed,
// cheap enough for CI's 1000-op run.
//
// Simulated memory recycles through a sync.Pool that every collection
// empties, so whether a world finds a recycled backing, and then how many
// pages its ticks allocate, would depend on collection timing and on which
// P runs it. Two collections before each world start every op cold, as
// perfbench starts each repetition, so ns/op, allocs/op and vcycles/op
// repeat at any -benchtime.
func BenchmarkTrafficTick(b *testing.B) {
	var vcycles uint64
	op := func() {
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		e, err := traffic.NewEngine(trafficTickConfig())
		if err != nil {
			b.Fatal(err)
		}
		cpu := e.System().CPU
		start := cpu.Now()
		b.StartTimer()
		for t := 0; t < trafficTickPeriod; t++ {
			if err := e.Tick(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		vcycles += cpu.Now() - start
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	op() // first-use initialisation stays out of the counts
	vcycles = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(vcycles)/float64(b.N), "vcycles/op")
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

// oracleChurnBDF is the second device of the oracle's map/unmap benchmark.
var oracleChurnBDF = pci.NewBDF(0, 4, 0)

// oracleChurnRing is the Rx ring length of the map/unmap benchmark.
const oracleChurnRing = 512

// newOracleChurn returns an audit oracle holding a full Rx ring of 2 KiB
// buffers, each on its own IOVA page, on each of two devices. It has
// already mirrored 6*1024 refills, 3*1024 retires per device: past the
// 2*1024 at which a device's tombstone slice stops growing, so the oracle
// is in its steady state, and a whole number of turns of both rings, so
// refill 0 comes next.
func newOracleChurn() *audit.Oracle {
	orc := audit.NewOracle("strict", &cycles.Clock{})
	for _, bdf := range []pci.BDF{oracleBDF, oracleChurnBDF} {
		for e := uint64(0); e < oracleChurnRing; e++ {
			orc.OnMap(bdf, oracleBufIOVA+e<<mem.PageShift, mem.PA(0x100_0000+e<<mem.PageShift), 2048, pci.DirFromDevice)
		}
	}
	for i := uint64(0); i < 6*1024; i++ {
		rotateOracleRing(orc, i)
	}
	return orc
}

// rotateOracleRing mirrors refill i of the Rx rings: it unmaps a ring
// slot's buffer and maps a fresh one there, alternating between the two
// devices so that each refill looks its device up.
func rotateOracleRing(orc *audit.Oracle, i uint64) {
	bdf := oracleBDF
	if i%2 == 1 {
		bdf = oracleChurnBDF
	}
	e := i / 2 % oracleChurnRing
	iova := oracleBufIOVA + e<<mem.PageShift
	orc.OnUnmap(bdf, iova)
	orc.OnMap(bdf, iova, mem.PA(0x100_0000+e<<mem.PageShift), 2048, pci.DirFromDevice)
}

// BenchmarkOracleMapUnmap times the audit oracle's mirror of one Rx
// refill, an unmap and a map, on 512-entry rings: the churn every received
// packet and every ring recovery sends through the oracle.
func BenchmarkOracleMapUnmap(b *testing.B) {
	orc := newOracleChurn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rotateOracleRing(orc, uint64(i))
	}
	b.StopTimer()
	if orc.LiveNow != 2*oracleChurnRing || orc.UnmapMisses != 0 {
		b.Fatalf("churn lost track of the rings: %d live, %d unmap misses", orc.LiveNow, orc.UnmapMisses)
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

	t.Run("oracle-map-unmap", func(t *testing.T) {
		orc := newOracleChurn()
		var i uint64
		// Each device's tombstones are cut once per 2*1024 refills of both
		// rings, so count whole batches of that many: a cut that allocates
		// would average out below one object per pair.
		const batch = 2 * 1024
		if n := testing.AllocsPerRun(4, func() {
			for k := 0; k < batch; k++ {
				rotateOracleRing(orc, i)
				i++
			}
		}); n != 0 {
			t.Errorf("oracle unmap+map allocates %.0f objects per %d pairs, want 0", n, batch)
		}
		if orc.LiveNow != 2*oracleChurnRing || orc.UnmapMisses != 0 {
			t.Errorf("churn lost track of the rings: %d live, %d unmap misses", orc.LiveNow, orc.UnmapMisses)
		}
	})

	t.Run("dma-engine", func(t *testing.T) {
		// Every DMA shape on a warm IOTLB: single-chunk transfers, 3,000-byte
		// transfers split across two pages, and descriptor quadwords. The
		// buffers are the caller's stack arrays, so a buffer that escapes
		// through the engine counts as an allocation.
		eng := newMappedEngine(t, 2)
		const span = engineIOVA + mem.PageSize - 1500
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"read", func() error { var b [1500]byte; return eng.Read(engineBDF, engineIOVA, b[:]) }},
			{"write", func() error { var b [1500]byte; return eng.Write(engineBDF, engineIOVA, b[:]) }},
			{"page-crossing read", func() error { var b [3000]byte; return eng.Read(engineBDF, span, b[:]) }},
			{"page-crossing write", func() error { var b [3000]byte; return eng.Write(engineBDF, span, b[:]) }},
			{"ReadU64", func() error { _, err := eng.ReadU64(engineBDF, engineIOVA); return err }},
			{"WriteU64", func() error { return eng.WriteU64(engineBDF, engineIOVA, 42) }},
		} {
			if err := op.run(); err != nil {
				t.Fatalf("%s: %v", op.name, err) // also warms the IOTLB
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := op.run(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("DMA engine %s allocates %.1f objects per op, want 0", op.name, n)
			}
		}
	})

	t.Run("mem-typed", func(t *testing.T) {
		// Typed and bulk accesses to frames that already hold pages, the
		// bulk ones crossing from one frame's page to the next. The
		// buffers are the caller's stack arrays, so a buffer that escapes
		// through memory counts as an allocation.
		mm := mustMem(t, 16*mem.PageSize)
		f, err := mm.AllocFrames(2)
		if err != nil {
			t.Fatal(err)
		}
		pa := f.PA() + mem.PageSize - 1500
		if err := mm.Fill(f.PA(), 2*mem.PageSize, 0xa5); err != nil {
			t.Fatal(err) // gives both frames their pages
		}
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"ReadU64", func() error { _, err := mm.ReadU64(f.PA() + 8); return err }},
			{"WriteU64", func() error { return mm.WriteU64(f.PA()+8, 42) }},
			{"ReadInto", func() error { var b [3000]byte; return mm.ReadInto(pa, b[:]) }},
			{"Write", func() error { var b [3000]byte; return mm.Write(pa, b[:]) }},
		} {
			if n := testing.AllocsPerRun(200, func() {
				if err := op.run(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("mem %s allocates %.1f objects per op, want 0", op.name, n)
			}
		}
	})

	t.Run("nic-tx-round", func(t *testing.T) {
		// One packet through the NIC driver's Tx path: Send maps the
		// header and payload buffers (mlx) or the one frame (brcm), PumpTx
		// transmits, ReapTx unmaps. The warm-up grows the buffer pool and
		// the driver's and device's scratch and runs past a deferred flush;
		// the steady state must then allocate nothing.
		payload := make([]byte, 1448)
		eachNICWorld(t, func(t *testing.T, p device.NICProfile, sys *sim.System) {
			drv, _, err := sys.AttachNIC(p, pci.NewBDF(0, 3, 0))
			if err != nil {
				t.Fatal(err)
			}
			round := func() {
				if err := drv.Send(payload); err != nil {
					t.Fatal(err)
				}
				if _, err := drv.PumpTx(1); err != nil {
					t.Fatal(err)
				}
				if _, err := drv.ReapTx(); err != nil {
					t.Fatal(err)
				}
			}
			for range baselinedrv.DeferBatch {
				round()
			}
			if n := batchAllocs(round); n != 0 {
				t.Errorf("NIC Tx rounds allocate %.0f objects per %d rounds, want 0", n, allocBatch)
			}
		})
	})

	t.Run("nic-rx-round", func(t *testing.T) {
		// One packet through the NIC driver's Rx path: Deliver writes the
		// header and payload (mlx) or the one frame (brcm) into posted
		// buffers, ReapRx unmaps, reads and reposts them. Deliver gives
		// each buffer page it first writes a page of simulated memory, so
		// the warm-up runs the whole Rx ring once, and past a deferred
		// flush; the steady state must then allocate nothing.
		frame := make([]byte, 1448)
		eachNICWorld(t, func(t *testing.T, p device.NICProfile, sys *sim.System) {
			drv, _, err := sys.AttachNIC(p, pci.NewBDF(0, 3, 0))
			if err != nil {
				t.Fatal(err)
			}
			round := func() {
				if err := drv.Deliver(frame); err != nil {
					t.Fatal(err)
				}
				if n, err := drv.ReapRx(); err != nil || n != 1 {
					t.Fatalf("ReapRx = %d, %v; want 1 packet", n, err)
				}
			}
			for range int(p.RxEntries) + baselinedrv.DeferBatch {
				round()
			}
			if n := batchAllocs(round); n != 0 {
				t.Errorf("NIC Rx rounds allocate %.0f objects per %d rounds, want 0", n, allocBatch)
			}
		})
	})

	t.Run("nic-reset", func(t *testing.T) {
		// Recover of an audited strict brcm queue with a full Rx ring:
		// 1024 unmaps and as many maps. The warm-up grows the oracle's
		// tombstones past their compaction point; the steady state must
		// then allocate nothing.
		sys, drv := newBRCMQueue(t, true)
		defer sys.Close()
		reset := func() {
			if err := drv.Recover(); err != nil {
				t.Fatal(err)
			}
		}
		for range 4 {
			reset()
		}
		if n := testing.AllocsPerRun(16, reset); n != 0 {
			t.Errorf("NIC reset allocates %.1f objects per op, want 0", n)
		}
	})

	t.Run("nvme-read-round", func(t *testing.T) {
		// One 4 KiB NVMe read: Read maps a buffer and submits, Poll lets
		// the device write the block and reaps, unmaps and reads the
		// completion. The warm-up gives the buffer its page and runs past a
		// deferred flush; the steady state must then allocate nothing.
		eachNICWorld(t, func(t *testing.T, _ device.NICProfile, sys *sim.System) {
			bdf := pci.NewBDF(0, 4, 0)
			prot, err := sys.ProtectionFor(bdf, []uint32{4, 64, 64})
			if err != nil {
				t.Fatal(err)
			}
			d, err := driver.NewNVMeDriver(sys.Mem, prot, sys.Eng, bdf, 4096, 128, 8)
			if err != nil {
				t.Fatal(err)
			}
			var lba uint64
			round := func() {
				if _, err := d.Read(lba%64, 4096); err != nil {
					t.Fatal(err)
				}
				lba++
				if n, err := d.Poll(8); err != nil || n != 1 {
					t.Fatalf("Poll = %d, %v; want 1 completion", n, err)
				}
			}
			for range baselinedrv.DeferBatch {
				round()
			}
			if n := batchAllocs(round); n != 0 {
				t.Errorf("NVMe read rounds allocate %.0f objects per %d rounds, want 0", n, allocBatch)
			}
		})
	})

	t.Run("traffic-tick", func(t *testing.T) {
		// One diurnal period of BenchmarkTrafficTick's world, started cold
		// as the benchmark starts it. Its ticks still give each frame of
		// simulated memory they first write a page, so this pins a count,
		// not zero: any allocation per packet or flow shows up above it.
		const ceiling = 232
		period := func() uint64 {
			runtime.GC()
			runtime.GC()
			e, err := traffic.NewEngine(trafficTickConfig())
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range trafficTickPeriod {
				if err := e.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			return after.Mallocs - before.Mallocs
		}
		period() // first-use initialisation stays out of the count
		// The count is process-wide, so a stray allocation elsewhere can
		// only raise it: gate the least of three cold periods. A real
		// per-packet allocation raises all three.
		counts := []uint64{period(), period(), period()}
		t.Logf("three traffic periods allocate %v objects (ceiling %d)", counts, ceiling)
		if n := slices.Min(counts); n > ceiling {
			t.Errorf("a traffic period allocates at least %d objects, want at most %d", n, ceiling)
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

// eachNICWorld runs f, as a subtest, in a fresh strict, defer and riommu
// world at each NIC profile's cost scale.
func eachNICWorld(t *testing.T, f func(t *testing.T, p device.NICProfile, sys *sim.System)) {
	for _, p := range []device.NICProfile{device.ProfileMLX, device.ProfileBRCM} {
		for _, mode := range []sim.Mode{sim.Strict, sim.Defer, sim.RIOMMU} {
			t.Run(p.Name+"/"+mode.String(), func(t *testing.T) {
				sys, err := sim.New(sim.Spec{Mode: mode, MemPages: 1 << 15, Model: cycles.DefaultModel().Scaled(p.CostScale)})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				f(t, p, sys)
			})
		}
	}
}

// allocBatch is how many rounds batchAllocs counts together.
const allocBatch = 64

// batchAllocs returns the objects allocBatch calls of round allocate. It
// counts whole batches because AllocsPerRun floors its mean: a growth that
// allocates once per many rounds would read zero per round.
func batchAllocs(round func()) float64 {
	return testing.AllocsPerRun(8, func() {
		for range allocBatch {
			round()
		}
	})
}

// TestSparseMemFootprint pins what simulated memory costs the host: a fresh
// 128 MiB memory allocates its page directory and frame metadata, under
// 1 MiB, and writing k frames allocates k pages, not the nominal size.
func TestSparseMemFootprint(t *testing.T) {
	// allocated returns the bytes f allocates. It collects twice first, so
	// the frame-store pools are empty and New builds a fresh directory.
	allocated := func(f func()) uint64 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var mm *mem.PhysMem
	fresh := allocated(func() { mm = mustMem(t, 128<<20) })
	if fresh >= 1<<20 {
		t.Errorf("mem.New(128 MiB) allocates %d bytes, want under 1 MiB", fresh)
	}
	const k = 256
	frames := make([]mem.PFN, k)
	for i := range frames {
		f, err := mm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	n := allocated(func() {
		for _, f := range frames {
			if err := mm.WriteU64(f.PA(), 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("mem.New(128 MiB) allocates %d bytes; writing %d frames allocates %d", fresh, k, n)
	if want := uint64(k * mem.PageSize); n < want || n > want+want/8 {
		t.Errorf("writing %d frames allocates %d bytes, want about %d", k, n, want)
	}
	mm.Release()
}
