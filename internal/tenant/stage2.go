package tenant

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/dma"
	"riommu/internal/iotlb"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// nested is the two-stage translator spliced into a guest's DMA engine:
// stage 1 (the guest's own per-mode path) produces a GPA, the device
// directory validates the source, and stage 2 resolves each touched GPA
// page against the domain's shared table. The returned address is the GPA —
// guest data still lives in the guest's simulated memory, so the data plane
// is byte-identical with tenancy off; the resolved HPA is handed to the
// oracle, which is where containment is proven.
type nested struct {
	dom   *Domain
	inner dma.Translator
}

// Translate implements dma.Translator. Chunks never cross a 4 KiB stage-1
// boundary (the engine splits them), but a sub-page chunk may still
// straddle a stage-2 page boundary when stage 1 maps at byte granularity
// (the rIOMMU modes), so every touched GPA page is resolved and verified.
func (n *nested) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	gpa, err := n.inner.Translate(bdf, iova, size, dir)
	if err != nil {
		return 0, err
	}
	d := n.dom
	h := d.host
	// Device directory: source validation. A DMA tagged with a BDF the
	// directory assigns to another domain (or to none) never reaches
	// stage 2 — the escape-via-BDF-spoof containment line.
	if owner := h.dir[bdf]; owner != d {
		d.SpoofBlocked++
		h.SpoofBlocked++
		return 0, fmt.Errorf("%w: device %s, domain %d", ErrNotOwner, bdf, d.ID)
	}
	if d.torn {
		return 0, fmt.Errorf("%w: domain %d, device %s", ErrTornDown, d.ID, bdf)
	}
	end := uint64(gpa) + uint64(size) - 1
	for gpn := uint64(gpa) >> mem.PageShift; gpn <= end>>mem.PageShift; gpn++ {
		base, err := d.resolve(gpn, dir)
		if err != nil {
			d.S2Faults++
			return 0, err
		}
		if h.aud != nil {
			segStart := max(uint64(gpa), gpn<<mem.PageShift)
			segEnd := min(end, (gpn<<mem.PageShift)|mem.PageMask)
			segHPA := uint64(base) | (segStart & mem.PageMask)
			h.aud.VerifyStage2(d.ID, bdf, segStart, mem.PA(segHPA), uint32(segEnd-segStart+1), dir)
		}
	}
	return gpa, nil
}

// resolve translates one GPA page through the domain's stage-2 TLB, walking
// the shared radix table on a miss. Stage-2 permissions intersect with
// stage 1's: stage 1 already enforced its own, and want must also be
// allowed here.
func (d *Domain) resolve(gpn uint64, want pci.Dir) (mem.PA, error) {
	h := d.host
	key := iotlb.Key{IOVAPFN: gpn} // per-domain cache: BDF not part of the key
	if e, ok := d.tlb.Lookup(key); ok {
		d.S2Hits++
		if !e.Perm.Allows(want) {
			return 0, fmt.Errorf("tenant: stage-2 permission fault: domain %d gpa page %#x perm %v want %v",
				d.ID, gpn, e.Perm, want)
		}
		return e.Frame.PA(), nil
	}
	d.S2Misses++
	h.Clk.Charge(cycles.Stage2, h.Model.Stage2Walk)
	pa, perm, err := d.s2.Walk(gpn<<mem.PageShift, want)
	if err != nil {
		return 0, err
	}
	d.tlb.Insert(key, iotlb.Entry{Frame: mem.PFNOf(pa), Perm: perm})
	return pa, nil
}

// Stage2 resolves a raw GPA access against the domain's stage-2 state
// exactly as a device DMA would (TLB, walk costs, oracle check) without
// going through a guest device — the entry point for fuzzing and tests.
func (d *Domain) Stage2(gpa uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	if d.torn {
		return 0, ErrTornDown
	}
	if size == 0 {
		return 0, fmt.Errorf("tenant: zero-size stage-2 access")
	}
	h := d.host
	end := gpa + uint64(size) - 1
	var first mem.PA
	for gpn := gpa >> mem.PageShift; gpn <= end>>mem.PageShift; gpn++ {
		base, err := d.resolve(gpn, dir)
		if err != nil {
			d.S2Faults++
			return 0, err
		}
		if gpn == gpa>>mem.PageShift {
			first = base | mem.PA(gpa&mem.PageMask)
		}
		if h.aud != nil {
			segStart := max(gpa, gpn<<mem.PageShift)
			segEnd := min(end, (gpn<<mem.PageShift)|mem.PageMask)
			segHPA := uint64(base) | (segStart & mem.PageMask)
			h.aud.VerifyStage2(d.ID, pci.BDF(0), segStart, mem.PA(segHPA), uint32(segEnd-segStart+1), dir)
		}
	}
	return first, nil
}

// s2InvQueue is the per-domain stage-2 invalidation queue. Strict policy
// submits and waits per entry (Stage2InvEntry each); lazy policy queues
// until s2InvBatch entries accumulate, then drains the batch behind one
// global flush — cheaper, but unmapped translations stay live until the
// drain.
type s2InvQueue struct {
	pending []uint64 // GPA page numbers awaiting invalidation
}

// invalidate retires the stage-2 TLB entry for one GPA page per the host's
// invalidation policy.
func (d *Domain) invalidate(gpn uint64) {
	h := d.host
	key := iotlb.Key{IOVAPFN: gpn}
	if !h.LazyInvalidate {
		d.tlb.Invalidate(key)
		d.S2Invalidations++
		h.Clk.Charge(cycles.Stage2, h.Model.Stage2InvEntry)
		return
	}
	d.tlb.MarkStale(key)
	d.invq.pending = append(d.invq.pending, gpn)
	if len(d.invq.pending) >= s2InvBatch {
		d.DrainInvalidations()
	}
}

// DrainInvalidations flushes the lazy queue: every pending entry dies
// behind one global flush. Until this runs, lazy-mode lookups can hit
// stale entries — the window the oracle's stage2-stale and cross-tenant
// classes exist to catch.
func (d *Domain) DrainInvalidations() {
	if len(d.invq.pending) == 0 {
		return
	}
	d.tlb.Flush()
	d.S2Invalidations += uint64(len(d.invq.pending))
	d.S2Flushes++
	d.invq.pending = d.invq.pending[:0]
	d.host.Clk.Charge(cycles.Stage2, d.host.Model.Stage2GlobalFlush)
}

// PendingInvalidations returns the lazy queue's depth.
func (d *Domain) PendingInvalidations() int { return len(d.invq.pending) }

// TLBStats returns the stage-2 TLB counters.
func (d *Domain) TLBStats() iotlb.Stats { return d.tlb.Stats() }

// MappedPages returns the number of live stage-2 mappings.
func (d *Domain) MappedPages() int { return len(d.pages) }

// FrameOf returns the frame backing a GPA page in the hypervisor's shadow
// map (ok=false when unmapped). Test/oracle plumbing, charges nothing.
func (d *Domain) FrameOf(gpa uint64) (mem.PFN, bool) {
	f, ok := d.pages[gpa>>mem.PageShift]
	return f, ok
}
