// Package pagetable implements the baseline IOMMU translation structures as
// specified by Intel VT-d and described in the paper's §2.2: a root table
// indexed by PCI bus number, context tables indexed by device+function, and a
// 4-level radix tree of I/O page tables mapping 48-bit IOVAs to physical
// frames. All tables live in simulated physical memory (package mem) and the
// hardware walk reads them from there, so translation is exercised against
// real bytes.
//
// The OS-side Map/Unmap operations charge the virtual clock for the work the
// paper attributes to the "page table" rows of Table 1: descending the radix
// tree, writing entries, and — when the I/O page walker is not coherent with
// the CPU caches — the explicit memory barriers and cacheline flushes needed
// to publish the update.
package pagetable

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Architectural geometry of the VT-d radix tree (§2.2).
const (
	// Levels is the depth of the radix tree (T1..T4).
	Levels = 4
	// IndexBits is the number of IOVA bits consumed per level.
	IndexBits = 9
	// EntriesPerTable is the fan-out of each table page (2^9).
	EntriesPerTable = 1 << IndexBits
	// VABits is the number of meaningful IOVA bits (36-bit VPN + 12-bit offset).
	VABits = Levels*IndexBits + mem.PageShift
	// MaxIOVA is the first IOVA beyond the translatable range.
	MaxIOVA = uint64(1) << VABits
)

// PTE bit layout (simplified VT-d second-level entry).
const (
	pteRead  = 1 << 0 // device may read (transmit direction)
	pteWrite = 1 << 1 // device may write (receive direction)
	pteAddr  = ^uint64(mem.PageMask) & ((1 << 52) - 1)
)

// FaultReason classifies why a walk failed, mirroring VT-d fault reporting.
type FaultReason int

const (
	// FaultNotPresent: a table or leaf entry along the path was absent.
	FaultNotPresent FaultReason = iota
	// FaultPermission: the leaf entry denies the requested direction.
	FaultPermission
	// FaultReserved: the IOVA exceeds the translatable range.
	FaultReserved
)

func (r FaultReason) String() string {
	switch r {
	case FaultNotPresent:
		return "not-present"
	case FaultPermission:
		return "permission"
	case FaultReserved:
		return "reserved"
	default:
		return fmt.Sprintf("fault(%d)", int(r))
	}
}

// Fault is an I/O page fault raised by a failed hardware walk or an invalid
// OS mapping operation.
type Fault struct {
	Reason FaultReason
	IOVA   uint64
	Want   pci.Dir
}

func (f *Fault) Error() string {
	return fmt.Sprintf("pagetable: I/O page fault (%s) iova=%#x dir=%s", f.Reason, f.IOVA, f.Want)
}

// Space is one I/O virtual address space (a protection domain): a 4-level
// radix tree rooted at a single table page.
type Space struct {
	mm       *mem.PhysMem
	clk      *cycles.Clock
	model    *cycles.Model
	coherent bool // is the I/O page walk coherent with CPU caches?

	root   mem.PFN
	mapped int // live leaf mappings
}

// NewSpace allocates an empty address space. coherent selects whether OS
// updates require explicit cacheline flushes (the paper's system was not
// coherent; Intel had only recently begun shipping coherent walkers).
func NewSpace(mm *mem.PhysMem, clk *cycles.Clock, model *cycles.Model, coherent bool) (*Space, error) {
	root, err := mm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating root: %w", err)
	}
	return &Space{
		mm:       mm,
		clk:      clk,
		model:    model,
		coherent: coherent,
		root:     root,
	}, nil
}

// Root returns the physical frame of the top-level table (what a context
// entry points at).
func (s *Space) Root() mem.PFN { return s.root }

// Mapped returns the number of live leaf mappings.
func (s *Space) Mapped() int { return s.mapped }

// indices splits the 36-bit virtual page number into the four 9-bit radix
// indices i1..i4.
func indices(iova uint64) [Levels]int {
	var ix [Levels]int
	vpn := iova >> mem.PageShift
	for l := Levels - 1; l >= 0; l-- {
		ix[l] = int(vpn & (EntriesPerTable - 1))
		vpn >>= IndexBits
	}
	return ix
}

func entryPA(table mem.PFN, index int) mem.PA {
	return table.PA() + mem.PA(index*8)
}

// syncEntry models publishing a table update to the IOMMU: a memory barrier
// always, plus a cacheline flush and trailing barrier when the walker is
// incoherent (the paper's sync_mem, Figure 11, applied to the baseline too).
func (s *Space) syncEntry(comp cycles.Component) {
	s.clk.ChargeFree(comp, s.model.MemoryBarrier)
	if !s.coherent {
		s.clk.ChargeFree(comp, s.model.CachelineFlush)
		s.clk.ChargeFree(comp, s.model.MemoryBarrier)
	}
}

// Map inserts the translation iova -> frame with the given permission mask.
// The IOVA must be page-aligned (baseline IOMMU protection is page-granular,
// §4) and previously unmapped. Intermediate tables are allocated on demand.
func (s *Space) Map(iova uint64, frame mem.PFN, perm pci.Dir) error {
	if iova >= MaxIOVA || iova&mem.PageMask != 0 {
		return &Fault{Reason: FaultReserved, IOVA: iova, Want: perm}
	}
	if perm == pci.DirNone {
		return fmt.Errorf("pagetable: mapping %#x with no permissions", iova)
	}
	s.clk.Charge(cycles.MapPageTable, 0) // count the operation; cycles accrue below
	ix := indices(iova)
	table := s.root
	for l := 0; l < Levels-1; l++ {
		s.clk.ChargeFree(cycles.MapPageTable, s.model.PTELevelWalk)
		pa := entryPA(table, ix[l])
		e, err := s.mm.ReadU64(pa)
		if err != nil {
			return err
		}
		if e&(pteRead|pteWrite) == 0 {
			next, err := s.mm.AllocFrame()
			if err != nil {
				return fmt.Errorf("pagetable: allocating level-%d table: %w", l+2, err)
			}
			e = uint64(next.PA()) | pteRead | pteWrite
			if err := s.mm.WriteU64(pa, e); err != nil {
				return err
			}
			s.clk.ChargeFree(cycles.MapPageTable, s.model.PTELevelWrite)
			s.syncEntry(cycles.MapPageTable)
		}
		table = mem.PFNOf(mem.PA(e & pteAddr))
	}
	leafPA := entryPA(table, ix[Levels-1])
	s.clk.ChargeFree(cycles.MapPageTable, s.model.PTELevelWalk)
	old, err := s.mm.ReadU64(leafPA)
	if err != nil {
		return err
	}
	if old&(pteRead|pteWrite) != 0 {
		return fmt.Errorf("pagetable: iova %#x already mapped", iova)
	}
	e := uint64(frame.PA()) & pteAddr
	if perm.Allows(pci.DirToDevice) || perm == pci.DirBidi {
		e |= pteRead
	}
	if perm.Allows(pci.DirFromDevice) || perm == pci.DirBidi {
		e |= pteWrite
	}
	if err := s.mm.WriteU64(leafPA, e); err != nil {
		return err
	}
	s.clk.ChargeFree(cycles.MapPageTable, s.model.PTELevelWrite+s.model.PTEMapInit)
	s.syncEntry(cycles.MapPageTable)
	s.mapped++
	return nil
}

// Unmap removes the translation for iova and returns the frame it mapped.
// It is an error to unmap an unmapped IOVA (the OS driver tracks liveness;
// a mismatch indicates a bug). The walk is charged once it has found the
// leaf, so an unmap that faults charges nothing.
func (s *Space) Unmap(iova uint64) (mem.PFN, error) {
	if iova >= MaxIOVA || iova&mem.PageMask != 0 {
		return 0, &Fault{Reason: FaultReserved, IOVA: iova}
	}
	leafPA, leaf, err := s.leaf(iova, pci.DirNone)
	if err != nil {
		return 0, err
	}
	if err := s.mm.WriteU64(leafPA, 0); err != nil {
		return 0, err
	}
	s.clk.Charge(cycles.UnmapPageTable, 0)
	s.clk.ChargeFreeN(cycles.UnmapPageTable, Levels, s.model.PTELevelWalk)
	s.clk.ChargeFree(cycles.UnmapPageTable, s.model.PTELevelWrite)
	s.syncEntry(cycles.UnmapPageTable)
	s.mapped--
	return mem.PFNOf(mem.PA(leaf & pteAddr)), nil
}

// Walk performs the hardware page walk for iova: four dependent reads from
// simulated memory, returning the translated physical address and the leaf
// permissions. The caller (the IOMMU model) charges device-side cycles; Walk
// itself only touches memory.
func (s *Space) Walk(iova uint64, want pci.Dir) (mem.PA, pci.Dir, error) {
	if iova >= MaxIOVA {
		return 0, 0, &Fault{Reason: FaultReserved, IOVA: iova, Want: want}
	}
	_, leaf, err := s.leaf(iova, want)
	if err != nil {
		return 0, 0, err
	}
	perm := permOf(leaf)
	if !perm.Allows(want) {
		return 0, 0, &Fault{Reason: FaultPermission, IOVA: iova, Want: want}
	}
	return mem.PA(leaf&pteAddr) | mem.PA(iova&mem.PageMask), perm, nil
}

// leaf reads the four entries on iova's path and returns the address and
// value of its present leaf entry, or a not-present fault for want. It
// charges nothing.
func (s *Space) leaf(iova uint64, want pci.Dir) (mem.PA, uint64, error) {
	ix := indices(iova)
	table := s.root
	for l := 0; ; l++ {
		pa := entryPA(table, ix[l])
		e, err := s.mm.ReadU64(pa)
		if err != nil {
			return 0, 0, err
		}
		if e&(pteRead|pteWrite) == 0 {
			return 0, 0, &Fault{Reason: FaultNotPresent, IOVA: iova, Want: want}
		}
		if l == Levels-1 {
			return pa, e, nil
		}
		table = mem.PFNOf(mem.PA(e & pteAddr))
	}
}

func permOf(pte uint64) pci.Dir {
	var d pci.Dir
	if pte&pteRead != 0 {
		d |= pci.DirToDevice
	}
	if pte&pteWrite != 0 {
		d |= pci.DirFromDevice
	}
	return d
}
