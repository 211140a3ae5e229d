// Package sim assembles complete simulated systems for each of the IOMMU
// protection modes the paper evaluates (§5.1):
//
//	strict, strict+, defer, defer+  — baseline IOMMU (full implementations)
//	riommu−, riommu                 — the proposed design (incoherent/coherent walks)
//	none                            — IOMMU disabled
//	HWpt, SWpt                      — pass-through modes used to validate the
//	                                  methodology (§5.1)
//
// A System owns two virtual clocks: CPU (the core the paper's model says
// determines throughput) and Dev (device/IOMMU-side work, tracked but not
// throughput-gating).
package sim

import (
	"fmt"

	"riommu/internal/audit"
	"riommu/internal/baseline"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/intremap"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

// Mode is one of the evaluated IOMMU configurations.
type Mode int

// The evaluated modes, in the paper's presentation order.
const (
	Strict Mode = iota
	StrictPlus
	Defer
	DeferPlus
	RIOMMUMinus
	RIOMMU
	None
	HWpt
	SWpt
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case StrictPlus:
		return "strict+"
	case Defer:
		return "defer"
	case DeferPlus:
		return "defer+"
	case RIOMMUMinus:
		return "riommu-"
	case RIOMMU:
		return "riommu"
	case None:
		return "none"
	case HWpt:
		return "hwpt"
	case SWpt:
		return "swpt"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Safe reports whether the mode provides gap-free intra-OS protection:
// strict modes and both rIOMMU variants are safe; the deferred modes leave a
// stale-IOTLB window; none/pass-through provide no protection.
func (m Mode) Safe() bool {
	switch m {
	case Strict, StrictPlus, RIOMMUMinus, RIOMMU:
		return true
	default:
		return false
	}
}

// AllModes returns the seven modes of Figure 12 in presentation order.
func AllModes() []Mode {
	return []Mode{Strict, StrictPlus, Defer, DeferPlus, RIOMMUMinus, RIOMMU, None}
}

// BaselineModes returns the four Linux baseline modes of Table 1.
func BaselineModes() []Mode {
	return []Mode{Strict, StrictPlus, Defer, DeferPlus}
}

// System is a fully wired simulated machine in one protection mode.
type System struct {
	Mode  Mode
	Model cycles.Model
	CPU   *cycles.Clock // the core: gates throughput (paper §3.3)
	Dev   *cycles.Clock // device/IOMMU side: tracked, not gating
	Mem   *mem.PhysMem
	Eng   *dma.Engine

	// Populated per mode.
	BaseHW *iommu.IOMMU // baseline modes, HWpt, SWpt (and lazily on degrade)
	RHW    *core.RIOMMU // rIOMMU modes

	// FaultEng is the fault-injection engine installed by EnableFaults
	// (nil when injection is disabled; its methods are nil-safe).
	FaultEng *faults.Engine

	// Auditor is the shadow translation oracle installed by EnableAudit
	// (nil when auditing is disabled).
	Auditor *audit.Oracle

	// IntRemap is the interrupt-remapping unit installed by EnableIntRemap
	// (nil: interrupts not modeled). IntAuditor is its shadow oracle,
	// installed by EnableIntAudit.
	IntRemap   *intremap.Remapper
	IntAuditor *audit.IntOracle

	intSources map[pci.BDF][]*intremap.Source
	lifecycles map[pci.BDF]*Lifecycle

	// Protections records the protection driver created for each device,
	// so experiments can reach mode-specific knobs (e.g. the deferred
	// invalidation batch size).
	Protections map[pci.BDF]driver.Protection

	protFor func(bdf pci.BDF, ringSizes []uint32) (driver.Protection, error)
}

// NewSystem builds a system with memPages pages of simulated memory.
func NewSystem(mode Mode, memPages uint64) (*System, error) {
	mm, err := mem.New(memPages * mem.PageSize)
	if err != nil {
		return nil, err
	}
	model := cycles.DefaultModel()
	s := &System{
		Mode:        mode,
		Model:       model,
		CPU:         &cycles.Clock{},
		Dev:         &cycles.Clock{},
		Mem:         mm,
		Protections: make(map[pci.BDF]driver.Protection),
	}

	switch mode {
	case None:
		s.Eng = dma.NewEngine(mm, iommu.Identity{})
		s.protFor = func(pci.BDF, []uint32) (driver.Protection, error) {
			return driver.NoProtection{}, nil
		}

	case HWpt:
		hier, err := pagetable.NewHierarchy(mm)
		if err != nil {
			return nil, err
		}
		s.BaseHW = iommu.New(s.Dev, &s.Model, hier, 0)
		s.BaseHW.PassThrough = true
		s.Eng = dma.NewEngine(mm, s.BaseHW)
		s.protFor = func(pci.BDF, []uint32) (driver.Protection, error) {
			return driver.PassThrough{Clk: s.CPU, Model: &s.Model}, nil
		}

	case SWpt:
		hier, err := pagetable.NewHierarchy(mm)
		if err != nil {
			return nil, err
		}
		s.BaseHW = iommu.New(s.Dev, &s.Model, hier, 0)
		s.Eng = dma.NewEngine(mm, s.BaseHW)
		s.protFor = func(bdf pci.BDF, _ []uint32) (driver.Protection, error) {
			if err := s.setupSWpt(bdf); err != nil {
				return nil, err
			}
			return driver.PassThrough{Clk: s.CPU, Model: &s.Model}, nil
		}

	case Strict, StrictPlus, Defer, DeferPlus:
		hier, err := pagetable.NewHierarchy(mm)
		if err != nil {
			return nil, err
		}
		s.BaseHW = iommu.New(s.Dev, &s.Model, hier, 0)
		s.Eng = dma.NewEngine(mm, s.BaseHW)
		bmode := map[Mode]baseline.Mode{
			Strict: baseline.Strict, StrictPlus: baseline.StrictPlus,
			Defer: baseline.Defer, DeferPlus: baseline.DeferPlus,
		}[mode]
		s.protFor = func(bdf pci.BDF, _ []uint32) (driver.Protection, error) {
			// The paper's machines had I/O page walks incoherent with the
			// CPU caches (§3.2), hence the explicit flushes.
			return baseline.New(bmode, s.CPU, &s.Model, mm, s.BaseHW, bdf, false)
		}

	case RIOMMUMinus, RIOMMU:
		s.RHW = core.New(s.Dev, &s.Model, mm)
		s.Eng = dma.NewEngine(mm, s.RHW)
		coherent := mode == RIOMMU
		s.protFor = func(bdf pci.BDF, ringSizes []uint32) (driver.Protection, error) {
			return core.NewDriver(s.CPU, &s.Model, mm, s.RHW, bdf, ringSizes, coherent)
		}

	default:
		return nil, fmt.Errorf("sim: unknown mode %d", int(mode))
	}
	return s, nil
}

// NewSystemScaled builds a system whose per-operation cost model is scaled
// by the given factor (cycles.Model.Scaled); used to model the brcm setup's
// cheaper per-op costs. The scaling mutates s.Model in place, which every
// component references, so it must be applied before any charges accrue.
func NewSystemScaled(mode Mode, memPages uint64, scale float64) (*System, error) {
	s, err := NewSystem(mode, memPages)
	if err != nil {
		return nil, err
	}
	if scale > 0 && scale != 1.0 {
		s.Model = s.Model.Scaled(scale)
	}
	return s, nil
}

// setupSWpt builds the software pass-through mapping: a page table that maps
// the entire physical memory with each page's IOVA equal to its address
// (§5.1). Every device DMA then misses/walks like a real translation.
func (s *System) setupSWpt(bdf pci.BDF) error {
	sp, err := pagetable.NewSpace(s.Mem, s.Dev, &s.Model, true)
	if err != nil {
		return err
	}
	if err := s.BaseHW.Hierarchy().Attach(bdf, sp); err != nil {
		return err
	}
	for f := mem.PFN(0); uint64(f) < s.Mem.Size()>>mem.PageShift; f++ {
		if err := sp.Map(uint64(f)<<mem.PageShift, f, pci.DirBidi); err != nil {
			return err
		}
	}
	return nil
}

// AttachNIC wires a NIC of the given profile into the system: protection
// driver, descriptor rings, device model, and a full Rx ring of mapped
// buffers.
func (s *System) AttachNIC(profile device.NICProfile, bdf pci.BDF) (*driver.NICDriver, *device.NIC, error) {
	prot, err := s.protFor(bdf, driver.RIOMMURingSizes(profile))
	if err != nil {
		return nil, nil, err
	}
	s.Protections[bdf] = prot
	return driver.NewNICDriver(s.Mem, prot, s.Eng, profile, bdf)
}

// AttachMQNIC wires a multi-queue NIC (§2.3) into the system: `queues`
// independent ring pairs sharing one device identity and protection domain.
func (s *System) AttachMQNIC(profile device.NICProfile, bdf pci.BDF, queues int) (*driver.MQNIC, error) {
	prot, err := s.protFor(bdf, driver.RIOMMURingSizesQ(profile, queues))
	if err != nil {
		return nil, err
	}
	s.Protections[bdf] = prot
	return driver.NewMQNIC(s.Mem, prot, s.Eng, profile, bdf, queues)
}

// ProtectionFor builds a protection driver for a non-NIC device with the
// given rIOMMU flat-table sizes (used by the NVMe and SATA experiments).
// Baseline and pass-through modes ignore ringSizes.
func (s *System) ProtectionFor(bdf pci.BDF, ringSizes []uint32) (driver.Protection, error) {
	prot, err := s.protFor(bdf, ringSizes)
	if err == nil {
		s.Protections[bdf] = prot
	}
	return prot, err
}

// ResetClocks zeroes both clocks; workloads call it after setup so that
// measurements cover only steady state.
func (s *System) ResetClocks() {
	s.CPU.Reset()
	s.Dev.Reset()
}

// Close releases the system's simulated memory backing into the shared
// pool (mem.PhysMem.Release), so the next world of the same memory size in
// an experiment or campaign grid reuses its page directory, pages and
// metadata instead of allocating them again. Nothing else is pooled: block
// devices' storage chunks are left to the collector. The system — and
// every driver, device, and engine built on it — must not be used
// afterwards. Closing is optional: an unclosed system is simply
// garbage-collected.
func (s *System) Close() {
	s.Mem.Release()
}
