package core

import (
	"errors"
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// ErrOverflow is returned by Map when the ring's flat table is full
// (r.nmapped == r.size). As with other ring-based devices, overflow is legal
// and simply means the caller must slow down (§4, Applicability).
var ErrOverflow = errors.New("riommu: ring flat table overflow")

// MapObserver mirrors successful map/unmap operations into an external
// shadow tracker; *audit.Oracle satisfies it. The driver defines the
// interface locally so the dependency points from the auditor to the
// audited.
type MapObserver interface {
	OnMap(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir)
	OnUnmap(bdf pci.BDF, iova uint64)
}

// Driver is the rIOMMU OS driver of Figure 11, bound to one rDEVICE. Its
// map allocates an IOVA by incrementing two integers, writes one rPTE, and
// publishes it with sync_mem; its unmap clears the valid bit and issues an
// explicit rIOTLB invalidation only when the caller marks the end of an
// unmap burst.
type Driver struct {
	clk   *cycles.Clock
	model *cycles.Model
	mm    *mem.PhysMem
	hw    *RIOMMU
	dev   *Device
	aud   MapObserver

	// coherent selects the riommu variant: true = riommu (I/O page walks
	// coherent with CPU caches), false = riommu− (sync_mem adds a cacheline
	// flush and an extra barrier per rPTE update). See §4 sync_mem and the
	// two simulated versions of §5.1.
	coherent bool
}

// NewDriver attaches a device with the given ring sizes and returns its
// driver. coherent selects riommu (true) versus riommu− (false).
func NewDriver(clk *cycles.Clock, model *cycles.Model, mm *mem.PhysMem, hw *RIOMMU, bdf pci.BDF, ringSizes []uint32, coherent bool) (*Driver, error) {
	dev, err := hw.AttachDevice(bdf, ringSizes)
	if err != nil {
		return nil, err
	}
	return &Driver{clk: clk, model: model, mm: mm, hw: hw, dev: dev, coherent: coherent}, nil
}

// Device returns the attached rDEVICE.
func (d *Driver) Device() *Device { return d.dev }

// SetAudit installs a map/unmap observer (nil disables mirroring).
func (d *Driver) SetAudit(o MapObserver) { d.aud = o }

// Coherent reports whether this is the riommu (true) or riommu− (false) variant.
func (d *Driver) Coherent() bool { return d.coherent }

// Live returns the number of live mappings across the device's rings.
func (d *Driver) Live() int {
	n := 0
	for _, r := range d.dev.rings {
		n += int(r.Mapped())
	}
	return n
}

// syncMem implements sync_mem (Figure 11 bottom/right): a memory barrier,
// plus a cacheline flush and a second barrier when the rIOMMU page walk is
// not coherent with the CPU caches.
func (d *Driver) syncMem(comp cycles.Component) {
	if !d.coherent {
		d.clk.ChargeFree(comp, d.model.MemoryBarrier)
		d.clk.ChargeFree(comp, d.model.CachelineFlush)
	}
	d.clk.ChargeFree(comp, d.model.MemoryBarrier)
}

// Map implements map (Figure 11 left): allocate the ring-tail rPTE, fill it,
// publish it, and return the packed rIOVA with offset 0. The physical
// address need not be page-aligned and size may be any u30 value —
// protection is fine-grained.
func (d *Driver) Map(rid int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	r := d.dev.Ring(rid)
	if r == nil {
		return 0, fmt.Errorf("riommu: map on nonexistent ring %d", rid)
	}
	if size == 0 || size >= MaxOffset {
		return 0, fmt.Errorf("riommu: buffer size %d out of u30 range", size)
	}
	if dir&pci.DirBidi == 0 {
		return 0, fmt.Errorf("riommu: mapping with no direction")
	}

	// IOVA allocation: two integer updates under a lock (nmapped guard +
	// tail advance). This is the analogue of the baseline's costly IOVA
	// allocator.
	if r.nmapped == r.size {
		return 0, ErrOverflow
	}
	t := r.tail
	// Defensive check beyond the paper's pseudocode: if unmaps ran out of
	// ring order (an AHCI-style device; §4 Applicability), the tail can
	// reach an entry that is still live even though nmapped < size.
	// Overwriting it would corrupt an in-flight mapping, so treat it as
	// overflow; out-of-order devices should use MapAt instead.
	if d.hw.readRPTE(r, t).valid {
		return 0, ErrOverflow
	}
	r.tail = (r.tail + 1) % r.size
	r.nmapped++
	d.clk.Charge(cycles.MapIOVAAlloc, d.model.RMapAllocFixed)

	// Pin the target buffer: DMAs are not restartable (§2.2).
	if err := d.pinRange(pa, size); err != nil {
		r.tail = t
		r.nmapped--
		return 0, err
	}

	// Fill and publish the rPTE (the analogue of updating the page-table
	// hierarchy, but flat).
	d.hw.writeRPTE(r, t, rpte{physAddr: pa, size: size, dir: dir, valid: true})
	d.clk.Charge(cycles.MapPageTable, d.model.RPTEWrite)
	d.syncMem(cycles.MapPageTable)
	d.clk.Charge(cycles.MapOther, d.model.RMapFixed)

	iova := uint64(PackIOVA(0, t, uint16(rid)))
	if d.aud != nil {
		d.aud.OnMap(d.dev.bdf, iova, pa, size, dir)
	}
	return iova, nil
}

// MapAt maps a buffer into an explicit flat-table entry instead of the ring
// tail. This is the §4 extension for devices whose queues are processed in
// arbitrary order (AHCI's 32 slots): the driver indexes the flat table by
// slot number, so out-of-order completion unmaps exactly its own entry.
// Such mappings lose the rIOTLB prefetch benefit but remain correct.
func (d *Driver) MapAt(rid int, rentry uint32, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	r := d.dev.Ring(rid)
	if r == nil {
		return 0, fmt.Errorf("riommu: map on nonexistent ring %d", rid)
	}
	if rentry >= r.size {
		return 0, fmt.Errorf("riommu: rentry %d out of range (ring size %d)", rentry, r.size)
	}
	if size == 0 || size >= MaxOffset {
		return 0, fmt.Errorf("riommu: buffer size %d out of u30 range", size)
	}
	if dir&pci.DirBidi == 0 {
		return 0, fmt.Errorf("riommu: mapping with no direction")
	}
	if d.hw.readRPTE(r, rentry).valid {
		return 0, fmt.Errorf("riommu: slot %d already mapped", rentry)
	}
	r.nmapped++
	d.clk.Charge(cycles.MapIOVAAlloc, d.model.RMapAllocFixed)
	if err := d.pinRange(pa, size); err != nil {
		r.nmapped--
		return 0, err
	}
	d.hw.writeRPTE(r, rentry, rpte{physAddr: pa, size: size, dir: dir, valid: true})
	d.clk.Charge(cycles.MapPageTable, d.model.RPTEWrite)
	d.syncMem(cycles.MapPageTable)
	d.clk.Charge(cycles.MapOther, d.model.RMapFixed)
	iova := uint64(PackIOVA(0, rentry, uint16(rid)))
	if d.aud != nil {
		d.aud.OnMap(d.dev.bdf, iova, pa, size, dir)
	}
	return iova, nil
}

// Unmap implements unmap (Figure 11 right): clear the rPTE's valid bit,
// decrement the ring's live count, publish the update, and — only when
// endOfBurst is set — invalidate the ring's single rIOTLB entry. The size
// argument is accepted for interface compatibility with the baseline driver
// and ignored: the rPTE itself records the buffer's extent.
func (d *Driver) Unmap(_ int, iovaAddr uint64, _ uint32, endOfBurst bool) error {
	iova := IOVA(iovaAddr)
	rid := iova.RID()
	r := d.dev.Ring(int(rid))
	if r == nil {
		return fmt.Errorf("riommu: unmap on nonexistent ring %d", rid)
	}
	if iova.REntry() >= r.size {
		return fmt.Errorf("riommu: unmap rentry %d out of range", iova.REntry())
	}
	p := d.hw.readRPTE(r, iova.REntry())
	if !p.valid {
		return fmt.Errorf("riommu: unmap of invalid rPTE %s", iova)
	}
	p.valid = false
	d.hw.writeRPTE(r, iova.REntry(), p)
	d.clk.Charge(cycles.UnmapPageTable, d.model.RPTEWrite)
	r.nmapped--
	d.clk.Charge(cycles.UnmapIOVAFree, d.model.RUnmapFreeFixed)
	d.syncMem(cycles.UnmapPageTable)
	d.clk.Charge(cycles.UnmapOther, d.model.RUnmapFixed)

	if err := d.unpinRange(p.physAddr, p.size); err != nil {
		return err
	}

	if endOfBurst {
		d.hw.invalidate(d.dev.bdf, rid)
		d.clk.Charge(cycles.UnmapIOTLBInv, d.model.IOTLBInvEntry)
	}
	if d.aud != nil {
		// Mirror with the base rIOVA the matching Map returned, regardless of
		// any offset in the caller's handle.
		d.aud.OnUnmap(d.dev.bdf, uint64(PackIOVA(0, iova.REntry(), rid)))
	}
	return nil
}

func (d *Driver) pinRange(pa mem.PA, size uint32) error {
	first := uint64(pa) >> mem.PageShift
	last := (uint64(pa) + uint64(size) - 1) >> mem.PageShift
	for f := first; f <= last; f++ {
		if err := d.mm.Pin(mem.PA(f << mem.PageShift)); err != nil {
			return fmt.Errorf("riommu: pinning target buffer: %w", err)
		}
	}
	return nil
}

func (d *Driver) unpinRange(pa mem.PA, size uint32) error {
	first := uint64(pa) >> mem.PageShift
	last := (uint64(pa) + uint64(size) - 1) >> mem.PageShift
	for f := first; f <= last; f++ {
		if err := d.mm.Unpin(mem.PA(f << mem.PageShift)); err != nil {
			return err
		}
	}
	return nil
}
