package cycles

// Model holds the per-primitive cycle costs used by the simulated data
// structures and drivers. The defaults are calibrated against the paper's
// Table 1 (measured on the mlx setup: Xeon E3-1220 @ 3.10 GHz, Linux 3.4.64)
// so that the strict/strict+/defer/defer+ map/unmap breakdowns and
// C_none = 1,816 cycles/packet land near the published numbers.
//
// Costs come in two kinds:
//
//   - Fixed hardware/driver primitives (memory barrier, cacheline flush,
//     IOTLB invalidation) charged per invocation.
//   - Per-step algorithmic costs (red-black-tree node visit, radix-tree level)
//     multiplied by the number of steps the *real* algorithm actually takes,
//     so asymptotic pathologies (the Linux IOVA allocator's linear scans) are
//     reproduced by construction, not assumed.
type Model struct {
	// ClockGHz is the core clock speed S in GHz (paper: 3.10).
	ClockGHz float64

	// MemoryBarrier is the cost of one full memory barrier (wmb/mb pair in
	// the Linux driver paths).
	MemoryBarrier uint64

	// CachelineFlush is the cost of one clflush of a page-table cacheline,
	// needed when the IOMMU page walker is not coherent with CPU caches.
	CachelineFlush uint64

	// IOTLBInvEntry is the cost of invalidating a single IOTLB entry through
	// the invalidation queue and waiting for completion (Table 1: 2,127).
	IOTLBInvEntry uint64

	// IOTLBGlobalFlush is the cost of flushing the entire IOTLB (deferred
	// mode processes ~250 queued invalidations with one global flush).
	IOTLBGlobalFlush uint64

	// DeferQueueOp is the per-unmap cost of queueing a deferred invalidation
	// (Table 1 defer: iotlb inv = 9 cycles).
	DeferQueueOp uint64

	// RBNodeVisit is the cost of touching one red-black-tree node during the
	// Linux IOVA allocator's gap search (pointer chase, likely cache miss).
	RBNodeVisit uint64

	// RBFindVisit is the per-node cost of the logarithmic lookup performed
	// when unmapping (finding the iova struct by address).
	RBFindVisit uint64

	// RBInsertFixed is the fixed overhead of rb-insert rebalancing beyond
	// the search itself; RBEraseFixed the same for rb_erase plus the iova
	// struct free (Table 1 strict "iova free": 159).
	RBInsertFixed uint64
	RBEraseFixed  uint64

	// ConstFindVisit is the per-node lookup cost in the "+" allocator's
	// tree, which holds live plus cached-free ranges and is therefore
	// deeper (Table 1: strict+ "iova find" 418 vs strict 249).
	ConstFindVisit uint64

	// FreelistOp is the cost of a constant-time allocator operation in the
	// "+" modes (magazine/freelist push or pop; Table 1 strict+: 92).
	FreelistOp uint64

	// PTELevelWrite is the cost of updating one level of the radix page
	// table (entry write + dirty accounting), excluding barriers/flushes.
	PTELevelWrite uint64

	// PTELevelWalk is the software cost of descending one radix level while
	// locating the leaf PTE slot.
	PTELevelWalk uint64

	// PTEMapInit is the extra leaf set-up work on map (present-bit logic,
	// permission encoding, dirty accounting) that unmap does not pay,
	// accounting for Table 1's map/page-table (588) exceeding unmap's (438).
	PTEMapInit uint64

	// MapFixed / UnmapFixed are the remaining fixed map/unmap bookkeeping
	// ("other" rows of Table 1: 44 and 26 cycles in strict mode).
	MapFixed   uint64
	UnmapFixed uint64

	// DeferUnmapExtra is the extra unmap bookkeeping in deferred mode
	// (managing the flush queue; Table 1 defer "other": 205 vs 26).
	DeferUnmapExtra uint64

	// rIOMMU driver costs (Figure 11). Calibrated so that on the mlx
	// profile riommu ≈ 0.77× and riommu− ≈ 0.52× the no-IOMMU throughput
	// (§5.2): roughly 135 cycles per map and 120 per unmap in coherent
	// mode, with sync_mem adding a flush + barrier per op when incoherent
	// (the paper's "~1.1K cycles per packet" delta for 4 ops).
	//
	// RMapAllocFixed: the locked tail/nmapped increments (IOVA allocation).
	// RPTEWrite: filling or clearing one 128-bit rPTE.
	// RMapFixed: remaining map bookkeeping (IOVA packing, checks).
	// RUnmapFreeFixed: the nmapped decrement (IOVA deallocation).
	// RUnmapFixed: remaining unmap bookkeeping.
	RMapAllocFixed  uint64
	RPTEWrite       uint64
	RMapFixed       uint64
	RUnmapFreeFixed uint64
	RUnmapFixed     uint64

	// PassthroughOp is the per-(un)map cost of the kernel's DMA-API
	// abstraction layer when the IOMMU is enabled in pass-through mode:
	// the map/unmap calls still run, translate nothing, and burn ~200
	// cycles per packet in total (§5.1's HWpt/SWpt observation; mlx has 4
	// ops per packet, hence 50 per op).
	PassthroughOp uint64

	// IOTLBMiss is the device-side cost of a baseline IOMMU page walk on an
	// IOTLB miss (§5.3 measured ~1,532 cycles ≈ 0.5 µs). Charged to
	// DeviceSide: it does not gate throughput in the interrupt-driven
	// model, but is visible to the §5.3 polling microbenchmark.
	IOTLBMiss uint64

	// RIOTLBFetch is the device-side cost of an rIOMMU flat-table fetch
	// that was not satisfied by the prefetched next entry (one DRAM read).
	RIOTLBFetch uint64

	// Interrupt remapping costs (VT-d-style, §2 analog for the MSI path).
	//
	// IRTEWalk: hardware fetch of one interrupt-remap-table entry on an
	// interrupt-entry-cache miss (an uncached DRAM read plus source-id
	// validation), charged device-side like the IOTLB walks.
	// IRTECacheHit: an IEC hit — on-die lookup, roughly an L2 access.
	// IECInvEntry: invalidating one IEC entry through the invalidation
	// queue and waiting for completion (same queued-invalidation machinery
	// as IOTLBInvEntry, slightly cheaper: no page-walk state to fence).
	// IECGlobalFlush: flushing the whole IEC (the deferred path amortizes
	// one flush over a batch of queued frees).
	// IECDeferOp: queueing one deferred IEC invalidation.
	// IntDeliver: core-side interrupt dispatch (IDT vectoring + EOI).
	// IntPost: posted delivery — writing the posted-interrupt descriptor
	// and sending the notification event instead of a full dispatch.
	IRTEWalk       uint64
	IRTECacheHit   uint64
	IECInvEntry    uint64
	IECGlobalFlush uint64
	IECDeferOp     uint64
	IntDeliver     uint64
	IntPost        uint64

	// Two-stage (nested) translation costs, charged to the Stage2 component
	// of the hypervisor's clock. The stage-2 table is the same 4-level radix
	// structure as the baseline IOMMU's, but it is walked by hardware only on
	// a stage-2 TLB miss and maintained by the hypervisor, not the guest.
	//
	// Stage2Walk: a hardware GPA→HPA radix walk on a stage-2 TLB miss.
	// Cheaper than IOTLBMiss: no context-entry fetch — the device directory
	// already pinned the domain (cf. the shared stage-2 design of Koenig et
	// al. for RISC-V SVA IOMMUs).
	// Stage2InvEntry: invalidating one stage-2 TLB entry through the
	// per-domain invalidation queue and waiting for completion.
	// Stage2GlobalFlush: flushing a domain's entire stage-2 TLB (teardown,
	// or the batch drain of a flooded invalidation queue).
	// Stage2MapPage / Stage2UnmapPage: hypervisor-side bookkeeping per
	// stage-2 page beyond the radix-table writes themselves (frame ledger,
	// ballooning accounting) — the PiBooster-style paravirtual split keeps
	// these off the guest's map/unmap path entirely.
	// BalloonOp: the per-page cost of a balloon hypercall, charged to the
	// calling guest's core (the one stage-2 operation guests can trigger).
	Stage2Walk        uint64
	Stage2InvEntry    uint64
	Stage2GlobalFlush uint64
	Stage2MapPage     uint64
	Stage2UnmapPage   uint64
	BalloonOp         uint64

	// HotAttach / HotDetach are the lifecycle-transition costs of bringing
	// a hot-plugged device to Live (config-space setup, MSI-X table init)
	// and of tearing one down after surprise removal (route teardown,
	// draining in-flight invalidations). Charged to the Recovery component.
	HotAttach uint64
	HotDetach uint64
}

// DefaultModel returns the cost model calibrated to the paper's mlx setup.
func DefaultModel() Model {
	return Model{
		ClockGHz:          3.10,
		MemoryBarrier:     30,
		CachelineFlush:    250,
		IOTLBInvEntry:     2127,
		IOTLBGlobalFlush:  2150,
		DeferQueueOp:      9,
		RBNodeVisit:       60,
		RBFindVisit:       18,
		RBInsertFixed:     40,
		RBEraseFixed:      155,
		ConstFindVisit:    30,
		FreelistOp:        46,
		PTELevelWrite:     50,
		PTELevelWalk:      25,
		PTEMapInit:        130,
		MapFixed:          44,
		UnmapFixed:        26,
		DeferUnmapExtra:   180,
		PassthroughOp:     50,
		RMapAllocFixed:    25,
		RPTEWrite:         40,
		RMapFixed:         40,
		RUnmapFreeFixed:   15,
		RUnmapFixed:       35,
		IOTLBMiss:         1532,
		RIOTLBFetch:       180,
		IRTEWalk:          320,
		IRTECacheHit:      24,
		IECInvEntry:       1830,
		IECGlobalFlush:    1950,
		IECDeferOp:        9,
		IntDeliver:        640,
		IntPost:           150,
		Stage2Walk:        1180,
		Stage2InvEntry:    1940,
		Stage2GlobalFlush: 2050,
		Stage2MapPage:     90,
		Stage2UnmapPage:   70,
		BalloonOp:         420,
		HotAttach:         30000,
		HotDetach:         42000,
	}
}

// Scaled returns a copy of the model with the per-operation driver and
// hardware costs multiplied by f. It models a different machine generation:
// the paper's brcm setup (Linux 3.11, a different chipset) exhibits visibly
// cheaper per-(un)map costs than the mlx setup, as derived from the CPU
// ratios of Table 2. The clock speed, the DRAM-latency-dominated rbtree
// node visits (RBNodeVisit), and the device-side walk and lookup costs
// (IOTLBMiss, RIOTLBFetch, IRTEWalk, IRTECacheHit, Stage2Walk) are machine
// physics and stay fixed. PassthroughOp is the kernel's DMA-API software
// path, like MapFixed and UnmapFixed, so it scales.
func (m Model) Scaled(f float64) Model {
	scale := func(v *uint64) { *v = uint64(float64(*v)*f + 0.5) }
	for _, v := range []*uint64{
		&m.MemoryBarrier, &m.CachelineFlush, &m.IOTLBInvEntry,
		&m.IOTLBGlobalFlush, &m.DeferQueueOp, &m.RBFindVisit,
		&m.RBInsertFixed, &m.RBEraseFixed, &m.ConstFindVisit, &m.FreelistOp,
		&m.PTELevelWrite, &m.PTELevelWalk, &m.PTEMapInit, &m.MapFixed,
		&m.UnmapFixed, &m.DeferUnmapExtra, &m.PassthroughOp,
		&m.RMapAllocFixed, &m.RPTEWrite,
		&m.RMapFixed, &m.RUnmapFreeFixed, &m.RUnmapFixed,
		&m.IECInvEntry, &m.IECGlobalFlush, &m.IECDeferOp,
		&m.IntDeliver, &m.IntPost, &m.HotAttach, &m.HotDetach,
		&m.Stage2InvEntry, &m.Stage2GlobalFlush, &m.Stage2MapPage,
		&m.Stage2UnmapPage, &m.BalloonOp,
	} {
		scale(v)
	}
	return m
}

// Seconds converts a cycle count to seconds under the model's clock.
func (m Model) Seconds(cyc uint64) float64 {
	return float64(cyc) / (m.ClockGHz * 1e9)
}

// Micros converts a cycle count to microseconds.
func (m Model) Micros(cyc uint64) float64 { return m.Seconds(cyc) * 1e6 }

// CyclesPerSecond returns S, the clock speed in cycles per second.
func (m Model) CyclesPerSecond() float64 { return m.ClockGHz * 1e9 }
