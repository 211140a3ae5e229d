// Package tenant adds the hypervisor layer: per-tenant domains with nested
// two-stage translation. Stage 1 is the existing per-mode IOVA→GPA path of
// each guest (all seven protection modes, unchanged); stage 2 is a shared
// GPA→HPA radix page table per tenant with its own TLB and invalidation
// queue, walked on the host side and charged to the `stage2` clock
// component. The split follows the shared stage-2 design evaluated for
// RISC-V SVA IOMMUs (Koenig et al.) and PiBooster's paravirtual
// page-table-management split: guests manage stage 1 at native cost, the
// hypervisor alone touches stage 2.
//
// The robustness surface is the point. A device directory keyed by BDF
// pins each device to its owning domain (PCIe ACS-style source validation),
// a host frame ledger records which tenant owns every host frame, and the
// audit.TenantOracle cross-checks every stage-2 resolution — any HPA
// outside the issuing tenant's frame set is a cross-tenant violation, the
// hard gate of the hostile-tenant campaign.
package tenant

import (
	"errors"
	"fmt"
	"sort"

	"riommu/internal/audit"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/iotlb"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

// Sentinel errors for host-level denials.
var (
	// ErrBalloonThrottled: the tenant exhausted its balloon-hypercall quota
	// for the current window (the invalidation-queue-flood defense).
	ErrBalloonThrottled = errors.New("tenant: balloon hypercall quota exhausted")
	// ErrNotOwner: a device issued a DMA but is not in the issuing
	// domain's directory slot (BDF spoof).
	ErrNotOwner = errors.New("tenant: device not owned by issuing domain")
)

// Host is the hypervisor: it owns host physical memory, the device
// directory, the frame ledger, and every tenant's stage-2 translation
// state. Its clock is the hypervisor/IOMMU-side clock — stage-2 work never
// charges a guest's core, so guest-visible metrics are byte-identical with
// tenancy on or off.
type Host struct {
	Model cycles.Model
	Clk   *cycles.Clock // hypervisor clock: all stage-2 costs land here
	Mem   *mem.PhysMem  // host memory backing the stage-2 radix tables

	// tableClk absorbs the radix-table maintenance charges of
	// pagetable.Space (which attributes to Map/UnmapPageTable); the host
	// transfers each delta onto Clk's Stage2 component so the entire
	// stage-2 cost lands on one attributable row.
	tableClk *cycles.Clock

	// LazyInvalidate defers stage-2 TLB invalidations into the per-domain
	// queue until it fills (s2InvBatch), instead of invalidating per entry.
	// Lazy mode opens a stale-translation window — it exists so tests can
	// prove the oracle detects what the strict default prevents.
	LazyInvalidate bool

	// BalloonQuota caps balloon-hypercall pages per tenant per
	// BalloonWindow cycles of that tenant's clock (0 = unlimited): the
	// defense that keeps one tenant from flooding the shared invalidation
	// machinery.
	BalloonQuota  int
	BalloonWindow uint64

	dir     map[pci.BDF]*Domain
	domains []*Domain
	nextID  int

	owner   map[mem.PFN]int // host frame → owning tenant
	nextHPA mem.PFN         // bump allocator for guest frames
	freeHPA []mem.PFN       // LIFO free list: reclaimed frames are regranted first

	aud *audit.TenantOracle

	// SpoofBlocked counts DMAs rejected by the device directory;
	// Throttled counts rejected balloon hypercalls (host-wide).
	SpoofBlocked uint64
	Throttled    uint64
}

// Domain is one tenant: a stage-2 GPA→HPA page table over host memory, a
// private stage-2 TLB and invalidation queue, and (usually) a guest System
// whose DMA engine has been respliced through the nested translator.
type Domain struct {
	ID   int
	host *Host
	Sys  *sim.System // nil for table-only domains (AdoptSpace)

	s2    *pagetable.Space
	tlb   *iotlb.IOTLB
	pages map[uint64]mem.PFN // GPA page → granted frame (hypervisor shadow)

	invq s2InvQueue

	// Balloon throttle window state, on the tenant's own clock.
	winStart uint64
	winOps   int

	// Stage-2 statistics.
	S2Hits, S2Misses, S2Faults uint64
	S2Invalidations, S2Flushes uint64
	SpoofBlocked               uint64
	Ballooned, Throttled       uint64
}

// stage2TLBEntries sizes each domain's stage-2 TLB. Stage-2 TLBs are larger
// than the stage-1 IOTLB (they cache per-domain, not per-device, and misses
// cost a full radix walk), but still finite so reuse-after-reclaim is a
// real hazard.
const stage2TLBEntries = 512

// s2InvBatch is the lazy-mode drain threshold of the per-domain
// invalidation queue.
const s2InvBatch = 64

// NewHost builds a hypervisor with hostPages pages of host memory backing
// stage-2 tables. Guest data frames are virtual (the guests keep their own
// simulated memories), so hostPages only needs to cover radix tables:
// roughly guestPages/512 + 4 frames per tenant.
func NewHost(hostPages uint64) (*Host, error) {
	mm, err := mem.New(hostPages * mem.PageSize)
	if err != nil {
		return nil, err
	}
	h := &Host{
		Model:    cycles.DefaultModel(),
		Clk:      &cycles.Clock{},
		Mem:      mm,
		tableClk: &cycles.Clock{},
		dir:      make(map[pci.BDF]*Domain),
		owner:    make(map[mem.PFN]int),
		// Guest frames start beyond host memory so they can never collide
		// with the table frames the ledger must not attribute to tenants.
		nextHPA: mem.PFN(hostPages),
	}
	return h, nil
}

// EnableAudit installs (and returns) the hypervisor's shadow oracle. Must
// be called before domains are adopted so the ledger mirror is complete.
func (h *Host) EnableAudit() *audit.TenantOracle {
	if h.aud == nil {
		h.aud = audit.NewTenantOracle(h.Clk)
	}
	return h.aud
}

// Oracle returns the tenant oracle (nil when auditing is disabled).
func (h *Host) Oracle() *audit.TenantOracle { return h.aud }

// Domains returns the adopted domains in adoption order.
func (h *Host) Domains() []*Domain { return h.domains }

// Owner returns the tenant owning host frame f, or -1.
func (h *Host) Owner(f mem.PFN) int {
	if t, ok := h.owner[f]; ok {
		return t
	}
	return -1
}

// chargeTable moves the radix-table maintenance cycles accrued on tableClk
// since `before` onto the Stage2 component of the hypervisor clock.
func (h *Host) chargeTable(before uint64) {
	if d := h.tableClk.Now() - before; d > 0 {
		h.Clk.ChargeFree(cycles.Stage2, d)
	}
}

// allocHPA grants one host frame to tenant id, reusing reclaimed frames
// LIFO — the reuse-after-reclaim pattern that makes stale stage-2 entries
// dangerous rather than merely wrong.
func (h *Host) allocHPA(id int) mem.PFN {
	var f mem.PFN
	if n := len(h.freeHPA); n > 0 {
		f = h.freeHPA[n-1]
		h.freeHPA = h.freeHPA[:n-1]
	} else {
		f = h.nextHPA
		h.nextHPA++
	}
	h.owner[f] = id
	if h.aud != nil {
		h.aud.OnOwn(f, id)
	}
	return f
}

// disownHPA reclaims a frame: ownership is dropped and the frame goes to
// the head of the free list.
func (h *Host) disownHPA(f mem.PFN) {
	delete(h.owner, f)
	h.freeHPA = append(h.freeHPA, f)
	if h.aud != nil {
		h.aud.OnDisown(f)
	}
}

// mapGPA installs one stage-2 mapping and updates ledger, shadow map, and
// oracle. The frame must already be owned by the domain.
func (h *Host) mapGPA(d *Domain, gpa uint64, f mem.PFN, perm pci.Dir) error {
	before := h.tableClk.Now()
	if err := d.s2.Map(gpa, f, perm); err != nil {
		return err
	}
	h.chargeTable(before)
	h.Clk.Charge(cycles.Stage2, h.Model.Stage2MapPage)
	d.pages[gpa>>mem.PageShift] = f
	if h.aud != nil {
		h.aud.OnS2Map(d.ID, gpa, f)
	}
	return nil
}

// unmapGPA removes one stage-2 mapping and queues/performs its TLB
// invalidation per the host's invalidation policy.
func (h *Host) unmapGPA(d *Domain, gpa uint64) (mem.PFN, error) {
	pfn := gpa >> mem.PageShift
	f, ok := d.pages[pfn]
	if !ok {
		return 0, fmt.Errorf("tenant: gpa %#x not mapped in domain %d", gpa, d.ID)
	}
	before := h.tableClk.Now()
	if err := d.s2.Unmap(gpa); err != nil {
		return 0, err
	}
	h.chargeTable(before)
	h.Clk.Charge(cycles.Stage2, h.Model.Stage2UnmapPage)
	delete(d.pages, pfn)
	if h.aud != nil {
		h.aud.OnS2Unmap(d.ID, gpa)
	}
	d.invalidate(pfn)
	return f, nil
}

// AdoptSystem places a guest system under the hypervisor: a new domain is
// created, every guest-physical page is granted a host frame and mapped in
// stage 2 with full permissions, and the guest's DMA engine is respliced so
// every device access passes stage 1 (unchanged) and then stage 2.
func (h *Host) AdoptSystem(sys *sim.System) (*Domain, error) {
	d, err := h.adopt(sys.Mem.Size()>>mem.PageShift, sys)
	if err != nil {
		return nil, err
	}
	nt := &nested{dom: d, inner: sys.Eng.Translator()}
	sys.Eng.SetTranslator(nt)
	return d, nil
}

// AdoptSpace creates a table-only domain (no guest system) with gpaPages of
// granted, mapped guest-physical space. Used by tests and fuzzing to drive
// the stage-2 machinery directly.
func (h *Host) AdoptSpace(gpaPages uint64) (*Domain, error) {
	return h.adopt(gpaPages, nil)
}

func (h *Host) adopt(gpaPages uint64, sys *sim.System) (*Domain, error) {
	s2, err := pagetable.NewSpace(h.Mem, h.tableClk, &h.Model, true)
	if err != nil {
		return nil, err
	}
	d := &Domain{
		ID:    h.nextID,
		host:  h,
		Sys:   sys,
		s2:    s2,
		tlb:   iotlb.New(stage2TLBEntries),
		pages: make(map[uint64]mem.PFN, gpaPages),
	}
	h.nextID++
	for p := uint64(0); p < gpaPages; p++ {
		f := h.allocHPA(d.ID)
		if err := h.mapGPA(d, p<<mem.PageShift, f, pci.DirBidi); err != nil {
			return nil, err
		}
	}
	h.domains = append(h.domains, d)
	return d, nil
}

// AttachDevice hot-adds a multi-queue NIC to the domain's guest through the
// sim.Lifecycle state machine and registers it in the device directory.
func (h *Host) AttachDevice(d *Domain, profile device.NICProfile, bdf pci.BDF, queues int) (*driver.MQNIC, error) {
	if d.Sys == nil {
		return nil, fmt.Errorf("tenant: domain %d has no guest system", d.ID)
	}
	if owner, ok := h.dir[bdf]; ok && owner != d {
		return nil, fmt.Errorf("tenant: device %s already owned by tenant %d", bdf, owner.ID)
	}
	mq, err := d.Sys.HotAttachMQNIC(profile, bdf, queues)
	if err != nil {
		return nil, err
	}
	h.dir[bdf] = d
	return mq, nil
}

// Register places an already-built device of the domain's guest into the
// device directory (for devices wired outside the hot-plug path).
func (h *Host) Register(d *Domain, bdf pci.BDF) error {
	if owner, ok := h.dir[bdf]; ok && owner != d {
		return fmt.Errorf("tenant: device %s already owned by tenant %d", bdf, owner.ID)
	}
	h.dir[bdf] = d
	return nil
}

// DirectoryOwner returns the domain owning bdf, or nil.
func (h *Host) DirectoryOwner(bdf pci.BDF) *Domain { return h.dir[bdf] }

// Reclaim unmaps pages of the domain's guest-physical space starting at
// gpa and returns their host frames to the free list (memory unplug). With
// strict invalidation the domain's stage-2 TLB entries die with the
// mappings; with lazy invalidation they linger in the queue — the stale
// window HostileTenant's replay scenario aims at.
func (h *Host) Reclaim(d *Domain, gpa uint64, pages int) error {
	for i := 0; i < pages; i++ {
		f, err := h.unmapGPA(d, gpa+uint64(i)<<mem.PageShift)
		if err != nil {
			return err
		}
		h.disownHPA(f)
	}
	return nil
}

// Grant maps pages of fresh guest-physical space into the domain starting
// at gpa with the given permissions, drawing frames from the free list
// first (memory plug — the other half of the reuse-after-reclaim hazard).
func (h *Host) Grant(d *Domain, gpa uint64, pages int, perm pci.Dir) error {
	for i := 0; i < pages; i++ {
		f := h.allocHPA(d.ID)
		if err := h.mapGPA(d, gpa+uint64(i)<<mem.PageShift, f, perm); err != nil {
			return err
		}
	}
	return nil
}

// Balloon is the guest-visible hypercall: unmap-invalidate-remap `pages`
// pages at the top of the domain's space. Each page costs BalloonOp on the
// calling tenant's clock and drives the shared stage-2 invalidation
// machinery — which is why the host enforces a per-window quota
// (ErrBalloonThrottled) instead of letting one tenant flood it.
func (h *Host) Balloon(d *Domain, pages int) error {
	clk := h.Clk
	if d.Sys != nil {
		clk = d.Sys.CPU
	}
	now := clk.Now()
	if h.BalloonWindow > 0 && now-d.winStart >= h.BalloonWindow {
		d.winStart = now
		d.winOps = 0
	}
	if h.BalloonQuota > 0 && d.winOps+pages > h.BalloonQuota {
		d.Throttled++
		h.Throttled++
		return fmt.Errorf("%w: tenant %d (%d ops in window)", ErrBalloonThrottled, d.ID, d.winOps)
	}
	d.winOps += pages
	// Highest mapped GPA pages churn; the hypercall itself charges the
	// calling guest, the stage-2 work charges the host.
	gpns := d.highestPages(pages)
	for _, gpn := range gpns {
		clk.Charge(cycles.Stage2, h.Model.BalloonOp)
		gpa := gpn << mem.PageShift
		// Allocate the destination before freeing the source (migration
		// order) — freeing first would hand the same frame straight back
		// through the LIFO list and make the balloon a no-op.
		nf := h.allocHPA(d.ID)
		f, err := h.unmapGPA(d, gpa)
		if err != nil {
			return err
		}
		if err := h.mapGPA(d, gpa, nf, pci.DirBidi); err != nil {
			return err
		}
		h.disownHPA(f)
		d.Ballooned++
	}
	return nil
}

// highestPages returns up to n currently-mapped GPA page numbers, highest
// first (sorted for determinism — map iteration order must never leak into
// charge or ledger order).
func (d *Domain) highestPages(n int) []uint64 {
	gpns := make([]uint64, 0, len(d.pages))
	// maporder: sorted below.
	for gpn := range d.pages {
		gpns = append(gpns, gpn)
	}
	sort.Slice(gpns, func(i, j int) bool { return gpns[i] > gpns[j] })
	if len(gpns) > n {
		gpns = gpns[:n]
	}
	return gpns
}

// Close releases the host's simulated memory. Domains must not translate
// afterwards.
func (h *Host) Close() { h.Mem.Release() }
