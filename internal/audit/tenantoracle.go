package audit

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Tenant-level violation classes. The cross-tenant class is the hard gate:
// a DMA that resolved to a host frame owned by another tenant is a broken
// blast radius, no matter what stage 1 thought it was doing.
const (
	// ReasonCrossTenant: the HPA belongs to a different tenant's frame set.
	ReasonCrossTenant = "cross-tenant"
	// ReasonUnownedFrame: the HPA belongs to no tenant (freed or never
	// granted) — a stale stage-2 translation reaching reclaimed memory.
	ReasonUnownedFrame = "unowned-frame"
	// ReasonStage2Stale: the frame is the tenant's own, but the GPA page it
	// was reached through is no longer mapped (a stage-2 TLB entry survived
	// its invalidation).
	ReasonStage2Stale = "stage2-stale"
	// ReasonStage2Mismatch: the GPA page is live but resolves to a
	// different frame (or offset) than the hardware returned.
	ReasonStage2Mismatch = "stage2-mismatch"
)

// TenantReasons lists the tenant-level violation classes in severity order
// (report code iterates this; the order is part of the JSON schema).
func TenantReasons() []string {
	return []string{ReasonCrossTenant, ReasonUnownedFrame, ReasonStage2Stale, ReasonStage2Mismatch}
}

// TenantViolation records one stage-2 access the hypervisor should not have
// allowed.
type TenantViolation struct {
	Reason string
	Tenant int     // the tenant whose device issued the DMA
	Owner  int     // the tenant owning the frame (cross-tenant only)
	BDF    pci.BDF // the issuing device
	GPA    uint64
	HPA    mem.PA
	Size   uint32
	Dir    pci.Dir
	Cycle  uint64 // hypervisor virtual time at detection
}

func (v TenantViolation) String() string {
	return fmt.Sprintf("[%s] tenant %d dev %s gpa=%#x hpa=%#x size=%d dir=%v owner=%d @%d",
		v.Reason, v.Tenant, v.BDF, v.GPA, v.HPA, v.Size, v.Dir, v.Owner, v.Cycle)
}

// TenantOracle is the hypervisor-side shadow oracle for nested translation.
// It mirrors the host's ground truth — which tenant owns each host frame,
// and which GPA pages each tenant currently has mapped — from the same
// notification stream that updates the real stage-2 tables, then checks
// every stage-2 resolution the hardware produces against that truth.
//
// Like the stage-1 Oracle it is a pure observer: it charges no clocks and
// consumes no randomness, so enabling it cannot perturb a run.
type TenantOracle struct {
	clk *cycles.Clock // hypervisor clock, read for violation timestamps

	owner []int32     // host frame → owning tenant + 1; 0 means unowned
	live  [][]mem.PFN // tenant → GPA page → granted frame; 0 means unmapped

	// Checked counts verified stage-2 resolutions; Violations the failures.
	Checked    uint64
	Violations uint64
	// CrossTenant counts the hard-gate class separately.
	CrossTenant uint64
	// ByReason breaks down violations by class.
	ByReason map[string]uint64
	// Events retains the first violations (capped) for diagnostics.
	Events []TenantViolation

	// Owns/Disowns/S2Maps/S2Unmaps count ground-truth updates (liveness:
	// an oracle that saw no traffic proves nothing).
	Owns, Disowns, S2Maps, S2Unmaps uint64
}

const tenantEventCap = 64

// NewTenantOracle returns an empty oracle stamping violations with clk.
func NewTenantOracle(clk *cycles.Clock) *TenantOracle {
	return &TenantOracle{
		clk:      clk,
		ByReason: make(map[string]uint64),
	}
}

// OnOwn records that the host granted frame f to tenant.
func (o *TenantOracle) OnOwn(f mem.PFN, tenant int) {
	o.owner = fit(o.owner, uint64(f))
	o.owner[f] = int32(tenant + 1)
	o.Owns++
}

// OnDisown records that the host reclaimed frame f from its owner.
func (o *TenantOracle) OnDisown(f mem.PFN) {
	if uint64(f) < uint64(len(o.owner)) {
		o.owner[f] = 0
	}
	o.Disowns++
}

// OnS2Map records a stage-2 mapping: tenant's GPA page now resolves to f,
// a granted frame and so never 0.
func (o *TenantOracle) OnS2Map(tenant int, gpa uint64, f mem.PFN) {
	o.live = fit(o.live, uint64(tenant))
	o.live[tenant] = fit(o.live[tenant], gpa>>mem.PageShift)
	o.live[tenant][gpa>>mem.PageShift] = f
	o.S2Maps++
}

// OnS2Unmap records removal of a stage-2 mapping.
func (o *TenantOracle) OnS2Unmap(tenant int, gpa uint64) {
	if p := gpa >> mem.PageShift; tenant < len(o.live) && p < uint64(len(o.live[tenant])) {
		o.live[tenant][p] = 0
	}
	o.S2Unmaps++
}

// fit returns s, lengthened with zeros if need be so that i indexes it.
func fit[T any](s []T, i uint64) []T {
	if i < uint64(len(s)) {
		return s
	}
	return append(s, make([]T, i+1-uint64(len(s)))...)
}

// VerifyStage2 checks one stage-2 resolution (a single GPA page segment)
// against the shadow state. Called by the nested translator after the
// hardware produced hpa for tenant's device at gpa.
func (o *TenantOracle) VerifyStage2(tenant int, bdf pci.BDF, gpa uint64, hpa mem.PA, size uint32, dir pci.Dir) {
	o.Checked++
	f := mem.PFNOf(hpa)
	own := -1
	if uint64(f) < uint64(len(o.owner)) {
		own = int(o.owner[f]) - 1
	}
	switch {
	case own >= 0 && own != tenant:
		o.violate(TenantViolation{Reason: ReasonCrossTenant, Tenant: tenant, Owner: own,
			BDF: bdf, GPA: gpa, HPA: hpa, Size: size, Dir: dir})
		return
	case own < 0:
		o.violate(TenantViolation{Reason: ReasonUnownedFrame, Tenant: tenant, Owner: -1,
			BDF: bdf, GPA: gpa, HPA: hpa, Size: size, Dir: dir})
		return
	}
	var cur mem.PFN
	if p := gpa >> mem.PageShift; tenant < len(o.live) && p < uint64(len(o.live[tenant])) {
		cur = o.live[tenant][p]
	}
	switch {
	case cur == 0:
		o.violate(TenantViolation{Reason: ReasonStage2Stale, Tenant: tenant, Owner: own,
			BDF: bdf, GPA: gpa, HPA: hpa, Size: size, Dir: dir})
	case cur != f || uint64(hpa)&mem.PageMask != gpa&mem.PageMask:
		o.violate(TenantViolation{Reason: ReasonStage2Mismatch, Tenant: tenant, Owner: own,
			BDF: bdf, GPA: gpa, HPA: hpa, Size: size, Dir: dir})
	}
}

func (o *TenantOracle) violate(v TenantViolation) {
	v.Cycle = o.clk.Now()
	o.Violations++
	o.ByReason[v.Reason]++
	if v.Reason == ReasonCrossTenant {
		o.CrossTenant++
	}
	if len(o.Events) < tenantEventCap {
		o.Events = append(o.Events, v)
	}
}
