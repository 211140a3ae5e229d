package core

import (
	"encoding/binary"
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// rPTE memory layout (Figure 9c): 128 bits per entry in simulated physical
// memory. Word 0 holds phys_addr; word 1 packs size (u30), dir (u2) and
// valid (u1).
const (
	rpteBytes = 16

	rpteSizeShift  = 0
	rpteDirShift   = 30
	rpteValidShift = 32
)

// rpte is the decoded in-flight copy of a flat-table entry.
type rpte struct {
	physAddr mem.PA
	size     uint32
	dir      pci.Dir
	valid    bool
}

func encodeRPTE(p rpte) (w0, w1 uint64) {
	w0 = uint64(p.physAddr)
	w1 = uint64(p.size&(MaxOffset-1))<<rpteSizeShift |
		uint64(p.dir&3)<<rpteDirShift
	if p.valid {
		w1 |= 1 << rpteValidShift
	}
	return w0, w1
}

func decodeRPTE(w0, w1 uint64) rpte {
	return rpte{
		physAddr: mem.PA(w0),
		size:     uint32(w1>>rpteSizeShift) & (MaxOffset - 1),
		dir:      pci.Dir(w1>>rpteDirShift) & 3,
		valid:    w1>>rpteValidShift&1 == 1,
	}
}

// Ring is an rRING (Figure 9b): a flat page table backing one device ring.
// The first two fields are hardware-visible (the flat table's location and
// size); tail and nmapped are used only by the OS driver.
type Ring struct {
	tablePA mem.PA // physical base of the rPTE array
	size    uint32 // number of rPTEs (u18)
	frames  mem.PFN
	nframes int
	tbl     []byte // direct view of the flat table (mem.Span)

	tail    uint32 // SW only: next entry to allocate
	nmapped uint32 // SW only: live mappings
}

// Size returns the number of entries in the flat table.
func (r *Ring) Size() uint32 { return r.size }

// Mapped returns the number of live mappings (SW bookkeeping).
func (r *Ring) Mapped() uint32 { return r.nmapped }

// Device is an rDEVICE (Figure 9a): the per-device array of rRINGs, pointed
// to by the context table entry of its bus-device-function.
type Device struct {
	bdf   pci.BDF
	rings []*Ring
}

// BDF returns the device's PCI identity.
func (d *Device) BDF() pci.BDF { return d.bdf }

// Ring returns ring rid, or nil if out of range.
func (d *Device) Ring(rid int) *Ring {
	if rid < 0 || rid >= len(d.rings) {
		return nil
	}
	return d.rings[rid]
}

// tlbKey identifies the single rIOTLB entry a ring may occupy (bdf+rid).
type tlbKey struct {
	bdf pci.BDF
	rid uint16
}

// riotlb is the rIOTLB backing store in struct-of-arrays layout: one slot
// per ring, with the key, the liveness bit, the cached "current" rPTE
// position/value (Figure 9e) and the prefetched next rPTE each in their own
// parallel array. Slots are allocated once per ring and recycled across
// invalidations (present gates liveness) and detaches (free list), so the
// steady-state translate path allocates nothing, and the fields a probe
// actually touches (present/rentry) stay densely packed instead of striding
// over whole entry structs.
type riotlb struct {
	index map[tlbKey]int32

	keys    []tlbKey
	present []bool
	rentry  []uint32
	cur     []rpte
	next    []rpte // prefetched copy; next[s].valid gates its use

	free []int32 // slots returned by DetachDevice
}

// slot returns the ring's slot, creating one (recycling a freed slot when
// possible) on first use.
func (t *riotlb) slot(key tlbKey) int32 {
	if s, ok := t.index[key]; ok {
		return s
	}
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
		t.keys[s] = key
		t.present[s] = false
		t.rentry[s] = 0
		t.cur[s] = rpte{}
		t.next[s] = rpte{}
	} else {
		s = int32(len(t.keys))
		t.keys = append(t.keys, key)
		t.present = append(t.present, false)
		t.rentry = append(t.rentry, 0)
		t.cur = append(t.cur, rpte{})
		t.next = append(t.next, rpte{})
	}
	t.index[key] = s
	return s
}

// release frees the ring's slot (device detach), returning whether it was
// present.
func (t *riotlb) release(key tlbKey) bool {
	s, ok := t.index[key]
	if !ok {
		return false
	}
	live := t.present[s]
	t.present[s] = false
	delete(t.index, key)
	t.free = append(t.free, s)
	return live
}

// IOPF is the I/O page fault raised by rtranslate/rtable_walk. OSes
// typically reinitialize the device on receiving one (§4).
type IOPF struct {
	BDF    pci.BDF
	IOVA   IOVA
	Reason string
}

func (e *IOPF) Error() string {
	return fmt.Sprintf("riommu: I/O page fault dev=%s %s: %s", e.BDF, e.IOVA, e.Reason)
}

// Stats counts rIOMMU hardware events.
type Stats struct {
	Translations  uint64
	PrefetchHits  uint64 // syncs satisfied by the prefetched next rPTE
	TableFetches  uint64 // rPTE fetches from DRAM (walks + failed prefetch)
	Invalidations uint64 // explicit rIOTLB invalidations (end of burst)
	Faults        uint64
}

// RIOMMU is the rIOMMU hardware: the registry of rDEVICEs plus the rIOTLB.
type RIOMMU struct {
	clk   *cycles.Clock
	model *cycles.Model
	mm    *mem.PhysMem

	devices map[pci.BDF]*Device
	tlb     riotlb
	tlbLive int // slots with present set (TLBEntries)
	stats   Stats
	aud     InvObserver

	// lastKey/lastSlot cache the most recently used rIOTLB slot so that the
	// common case — a device streaming through one ring — resolves with zero
	// map lookups. lastSlot is -1 when the cache is empty, and otherwise
	// always the index slot for lastKey.
	lastKey  tlbKey
	lastSlot int32

	// DisablePrefetch turns off the speculative next-rPTE load. The design
	// does not depend on it (§4: "works just as well without it" for
	// correctness); the ablation experiment quantifies what it buys on the
	// device side.
	DisablePrefetch bool
}

// New creates an rIOMMU over the given simulated memory.
func New(clk *cycles.Clock, model *cycles.Model, mm *mem.PhysMem) *RIOMMU {
	return &RIOMMU{
		clk:      clk,
		model:    model,
		mm:       mm,
		devices:  make(map[pci.BDF]*Device),
		tlb:      riotlb{index: make(map[tlbKey]int32)},
		lastSlot: -1,
	}
}

// Stats returns a copy of the hardware event counters.
func (u *RIOMMU) Stats() Stats { return u.stats }

// TLBEntries returns the number of live rIOTLB entries (at most one per
// ring, by construction).
func (u *RIOMMU) TLBEntries() int { return u.tlbLive }

// AttachDevice registers a device with ringSizes[i] entries in ring i,
// allocating each flat table in simulated physical memory. Ring sizes must
// fit the u18 rentry field.
func (u *RIOMMU) AttachDevice(bdf pci.BDF, ringSizes []uint32) (*Device, error) {
	if _, dup := u.devices[bdf]; dup {
		return nil, fmt.Errorf("riommu: device %s already attached", bdf)
	}
	if len(ringSizes) == 0 || len(ringSizes) >= MaxRings {
		return nil, fmt.Errorf("riommu: device needs 1..%d rings, got %d", MaxRings-1, len(ringSizes))
	}
	d := &Device{bdf: bdf}
	for rid, n := range ringSizes {
		if n == 0 || n >= MaxRingSize {
			return nil, fmt.Errorf("riommu: ring %d size %d out of u18 range", rid, n)
		}
		bytes := uint64(n) * rpteBytes
		nframes := int((bytes + mem.PageSize - 1) / mem.PageSize)
		f, err := u.mm.AllocFrames(nframes)
		if err != nil {
			return nil, fmt.Errorf("riommu: allocating flat table for ring %d: %w", rid, err)
		}
		tbl, err := u.mm.Span(f.PA(), bytes)
		if err != nil {
			return nil, fmt.Errorf("riommu: mapping flat table for ring %d: %w", rid, err)
		}
		d.rings = append(d.rings, &Ring{
			tablePA: f.PA(),
			size:    n,
			frames:  f,
			nframes: nframes,
			tbl:     tbl,
		})
	}
	u.devices[bdf] = d
	return d, nil
}

// DetachDevice tears the device down, freeing its flat tables and purging
// its rIOTLB entries.
func (u *RIOMMU) DetachDevice(bdf pci.BDF) error {
	d, ok := u.devices[bdf]
	if !ok {
		return fmt.Errorf("riommu: device %s not attached", bdf)
	}
	for rid, r := range d.rings {
		if u.tlb.release(tlbKey{bdf: bdf, rid: uint16(rid)}) {
			u.tlbLive--
		}
		for i := 0; i < r.nframes; i++ {
			if err := u.mm.FreeFrame(r.frames + mem.PFN(i)); err != nil {
				return err
			}
		}
	}
	u.lastKey, u.lastSlot = tlbKey{}, -1 // may point at a just-freed slot
	delete(u.devices, bdf)
	return nil
}

// Device returns the attached rDEVICE for bdf, or nil.
func (u *RIOMMU) Device(bdf pci.BDF) *Device { return u.devices[bdf] }

// readRPTE fetches flat-table entry i of ring r from simulated memory. The
// flat table is read through the Span view taken at attach: the table stays
// allocated for the device's whole lifetime and callers bounds-check i
// against the ring size, so the fetch cannot fail and sees every store DMA
// paths make to the same bytes.
func (u *RIOMMU) readRPTE(r *Ring, i uint32) rpte {
	e := r.tbl[uint64(i)*rpteBytes:]
	return decodeRPTE(binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint64(e[8:]))
}

// writeRPTE stores flat-table entry i of ring r (used by the OS driver).
func (u *RIOMMU) writeRPTE(r *Ring, i uint32, p rpte) {
	e := r.tbl[uint64(i)*rpteBytes:]
	w0, w1 := encodeRPTE(p)
	binary.LittleEndian.PutUint64(e, w0)
	binary.LittleEndian.PutUint64(e[8:], w1)
}

func (u *RIOMMU) fault(bdf pci.BDF, iova IOVA, reason string) error {
	u.stats.Faults++
	return &IOPF{BDF: bdf, IOVA: iova, Reason: reason}
}

// rtableWalk implements rtable_walk (Figure 10 top/right): bounds-check the
// rIOVA against the rDEVICE/rRING limits, fetch its rPTE from memory,
// validate it, fill the caller's rIOTLB slot in place, and attempt to
// prefetch the next one. On error the slot is left untouched.
func (u *RIOMMU) rtableWalk(bdf pci.BDF, iova IOVA, s int32) error {
	d, ok := u.devices[bdf]
	if !ok {
		return u.fault(bdf, iova, "no rDEVICE for bdf")
	}
	rid := iova.RID()
	if int(rid) >= len(d.rings) {
		return u.fault(bdf, iova, "rid out of range")
	}
	r := d.rings[rid]
	if iova.REntry() >= r.size {
		return u.fault(bdf, iova, "rentry out of range")
	}
	p := u.readRPTE(r, iova.REntry())
	u.stats.TableFetches++
	u.clk.Charge(cycles.DeviceSide, u.model.RIOTLBFetch)
	if !p.valid {
		return u.fault(bdf, iova, "invalid rPTE")
	}
	u.tlb.rentry[s], u.tlb.cur[s] = iova.REntry(), p
	u.rprefetch(d, s)
	return nil
}

// rprefetch implements rprefetch (Figure 10 bottom/right): copy the
// subsequent rPTE into the slot's next field if it is currently valid.
// Prefetching is speculative and free of side effects; in real hardware it
// is asynchronous, so it charges nothing to the device-side clock.
func (u *RIOMMU) rprefetch(d *Device, s int32) {
	if u.DisablePrefetch {
		u.tlb.next[s] = rpte{}
		return
	}
	r := d.rings[u.tlb.keys[s].rid]
	next := (u.tlb.rentry[s] + 1) % r.size
	u.tlb.next[s] = rpte{}
	if r.size > 1 {
		if p := u.readRPTE(r, next); p.valid {
			u.tlb.next[s] = p
		}
	}
}

// riotlbEntrySync implements riotlb_entry_sync (Figure 10 bottom/left):
// bring the slot up to date with the rIOVA being translated, using the
// prefetched next entry when it matches (the sequential fast path) and a
// table walk otherwise.
func (u *RIOMMU) riotlbEntrySync(bdf pci.BDF, iova IOVA, s int32) error {
	d := u.devices[bdf]
	next := (u.tlb.rentry[s] + 1) % d.rings[u.tlb.keys[s].rid].size
	if u.tlb.next[s].valid && iova.REntry() == next {
		u.tlb.cur[s] = u.tlb.next[s]
		u.tlb.rentry[s] = next
		u.tlb.next[s].valid = false
		u.stats.PrefetchHits++
	} else {
		return u.rtableWalk(bdf, iova, s) // walk fills the slot and prefetches
	}
	u.rprefetch(d, s)
	return nil
}

// rslot resolves the rIOTLB slot for a key through the one-element MRU
// cache.
func (u *RIOMMU) rslot(key tlbKey) int32 {
	s := u.lastSlot
	if s < 0 || u.lastKey != key {
		s = u.tlb.slot(key)
		u.lastKey, u.lastSlot = key, s
	}
	return s
}

// Rtranslate implements rtranslate (Figure 10 top/left): resolve a packed
// rIOVA to a physical address, enforcing the per-buffer size and direction
// recorded in its rPTE.
func (u *RIOMMU) Rtranslate(bdf pci.BDF, iova IOVA, dir pci.Dir) (mem.PA, error) {
	u.stats.Translations++
	s := u.rslot(tlbKey{bdf: bdf, rid: iova.RID()})
	if !u.tlb.present[s] {
		if err := u.rtableWalk(bdf, iova, s); err != nil {
			return 0, err
		}
		u.tlb.present[s] = true
		u.tlbLive++
	} else if u.tlb.rentry[s] != iova.REntry() {
		if err := u.riotlbEntrySync(bdf, iova, s); err != nil {
			return 0, err
		}
	}
	// Note: when the slot's rentry == iova.rentry the cached copy is used
	// as-is even if the OS has since cleared the rPTE in memory — the rIOTLB
	// is not coherent with memory, which is precisely why the driver must
	// issue an explicit invalidation at the end of each unmap burst (§4).
	p := &u.tlb.cur[s]
	if iova.Offset() >= p.size || !p.dir.Allows(dir) {
		return 0, u.fault(bdf, iova, fmt.Sprintf("offset %#x >= size %#x or direction %s not permitted by %s",
			iova.Offset(), p.size, dir, p.dir))
	}
	return p.physAddr + mem.PA(iova.Offset()), nil
}

// Translate adapts Rtranslate to the flat-uint64 Translator interface used
// by the DMA engine. size is checked against the rPTE bound (fine-grained
// protection: the whole access must fall inside the mapped buffer).
func (u *RIOMMU) Translate(bdf pci.BDF, iovaAddr uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	iova := IOVA(iovaAddr)
	pa, err := u.Rtranslate(bdf, iova, dir)
	if err != nil {
		return 0, err
	}
	if size > 0 {
		// A successful Rtranslate always leaves lastSlot at this ring's
		// slot, so the bound check needs no second map lookup.
		if s := u.lastSlot; s >= 0 && u.tlb.present[s] && u.lastKey == (tlbKey{bdf: bdf, rid: iova.RID()}) &&
			uint64(iova.Offset())+uint64(size) > uint64(u.tlb.cur[s].size) {
			return 0, u.fault(bdf, iova, fmt.Sprintf("access of %d bytes exceeds buffer size %d", size, u.tlb.cur[s].size))
		}
	}
	return pa, nil
}

// InvObserver mirrors hardware invalidations into an external shadow
// tracker; *audit.Oracle satisfies it.
type InvObserver interface {
	OnInvalidate(bdf pci.BDF, token uint64)
}

// SetAudit installs an invalidation observer (nil disables mirroring).
func (u *RIOMMU) SetAudit(o InvObserver) { u.aud = o }

// invalidate drops the ring's single rIOTLB entry (the end-of-burst
// operation issued by the OS driver's unmap).
func (u *RIOMMU) invalidate(bdf pci.BDF, rid uint16) {
	if s, ok := u.tlb.index[tlbKey{bdf: bdf, rid: rid}]; ok && u.tlb.present[s] {
		u.tlb.present[s] = false
		u.tlbLive--
	}
	u.stats.Invalidations++
	if u.aud != nil {
		u.aud.OnInvalidate(bdf, uint64(rid))
	}
}
