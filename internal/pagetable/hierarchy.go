package pagetable

import (
	"fmt"

	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Context-entry bit layout (simplified VT-d): bit 0 = present, bits 12..51 =
// physical address of the attached domain's root table page.
const (
	ctxPresent = 1 << 0
	ctxAddr    = pteAddr
)

// Hierarchy models the per-IOMMU device lookup structures of Figure 2: the
// root table, indexed by the 8-bit bus number, whose entries point to context
// tables, indexed by the 8-bit device+function concatenation, whose entries
// point to the root of the attached address space's radix tree. Both tables
// live in simulated physical memory and are read by the hardware lookup.
type Hierarchy struct {
	mm   *mem.PhysMem
	root mem.PFN

	contextTables map[uint8]mem.PFN  // bus -> context table frame
	spaces        map[pci.BDF]*Space // OS-side handle to the attached spaces

	// last caches the most recent successful Lookup. The fast path still
	// re-reads both table entries from simulated memory and compares them to
	// the cached values — table corruption is detected exactly as before —
	// but it skips the map lookups and error-path formatting machinery.
	last struct {
		valid           bool
		bdf             pci.BDF
		rootPA, ctxPA   mem.PA // addresses of the two table entries
		rootVal, ctxVal uint64 // values they held when the cache was filled
		sp              *Space
	}
}

// NewHierarchy allocates an empty root table.
func NewHierarchy(mm *mem.PhysMem) (*Hierarchy, error) {
	root, err := mm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating root table: %w", err)
	}
	return &Hierarchy{
		mm:            mm,
		root:          root,
		contextTables: make(map[uint8]mem.PFN),
		spaces:        make(map[pci.BDF]*Space),
	}, nil
}

// Attach binds an address space to a device, creating the bus's context
// table on demand.
func (h *Hierarchy) Attach(bdf pci.BDF, space *Space) error {
	h.last.valid = false // a reused root frame could alias the cached entry
	if _, dup := h.spaces[bdf]; dup {
		return fmt.Errorf("pagetable: device %s already attached", bdf)
	}
	ct, ok := h.contextTables[bdf.Bus()]
	if !ok {
		f, err := h.mm.AllocFrame()
		if err != nil {
			return fmt.Errorf("pagetable: allocating context table: %w", err)
		}
		ct = f
		h.contextTables[bdf.Bus()] = ct
		rootEntry := h.root.PA() + mem.PA(int(bdf.Bus())*8)
		if err := h.mm.WriteU64(rootEntry, uint64(ct.PA())|ctxPresent); err != nil {
			return err
		}
	}
	ctxEntry := ct.PA() + mem.PA(int(bdf.DevFn())*8)
	if err := h.mm.WriteU64(ctxEntry, uint64(space.Root().PA())|ctxPresent); err != nil {
		return err
	}
	h.spaces[bdf] = space
	return nil
}

// Detach unbinds a device. The address space itself is not destroyed.
func (h *Hierarchy) Detach(bdf pci.BDF) error {
	h.last.valid = false
	if _, ok := h.spaces[bdf]; !ok {
		return fmt.Errorf("pagetable: device %s not attached", bdf)
	}
	ct := h.contextTables[bdf.Bus()]
	if err := h.mm.WriteU64(ct.PA()+mem.PA(int(bdf.DevFn())*8), 0); err != nil {
		return err
	}
	delete(h.spaces, bdf)
	return nil
}

// Lookup performs the hardware root/context walk: two dependent memory reads
// resolving the BDF to the attached space's radix root. It returns the
// OS-side Space handle after verifying the in-memory tables agree with it,
// so a corrupted table is detected rather than papered over.
func (h *Hierarchy) Lookup(bdf pci.BDF) (*Space, error) {
	if h.last.valid && h.last.bdf == bdf {
		// Re-read and verify both entries; ReadU64 is side-effect-free, so
		// on any mismatch or error falling through repeats the reads with
		// byte-identical outcomes.
		re, err1 := h.mm.ReadU64(h.last.rootPA)
		ce, err2 := h.mm.ReadU64(h.last.ctxPA)
		if err1 == nil && err2 == nil && re == h.last.rootVal && ce == h.last.ctxVal {
			return h.last.sp, nil
		}
		h.last.valid = false
	}
	re, err := h.mm.ReadU64(h.root.PA() + mem.PA(int(bdf.Bus())*8))
	if err != nil {
		return nil, err
	}
	if re&ctxPresent == 0 {
		return nil, fmt.Errorf("pagetable: no context table for bus %#x", bdf.Bus())
	}
	ct := mem.PA(re & ctxAddr)
	ce, err := h.mm.ReadU64(ct + mem.PA(int(bdf.DevFn())*8))
	if err != nil {
		return nil, err
	}
	if ce&ctxPresent == 0 {
		return nil, fmt.Errorf("pagetable: device %s not present in context table", bdf)
	}
	sp := h.spaces[bdf]
	if sp == nil || uint64(sp.Root().PA()) != ce&ctxAddr {
		return nil, fmt.Errorf("pagetable: context entry for %s does not match attached space", bdf)
	}
	h.last.valid = true
	h.last.bdf = bdf
	h.last.rootPA = h.root.PA() + mem.PA(int(bdf.Bus())*8)
	h.last.ctxPA = ct + mem.PA(int(bdf.DevFn())*8)
	h.last.rootVal, h.last.ctxVal = re, ce
	h.last.sp = sp
	return sp, nil
}

// Space returns the OS-side handle for an attached device, or nil.
func (h *Hierarchy) Space(bdf pci.BDF) *Space { return h.spaces[bdf] }
