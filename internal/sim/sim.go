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
//
// New builds every System from a Spec: one comparable value, as an rDEVICE
// is one record of a device's translation set-up, that fixes the mode, the
// memory, the cost model, fault injection, the oracles and interrupt
// remapping before the world exists. Devices (AttachNIC, AttachMQNIC,
// ProtectionFor) and tenancy (internal/tenant) attach by explicit calls
// afterwards, because their callers drive what those calls return.
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

	// FaultEng is the fault-injection engine (nil unless Spec.Inject; its
	// methods are nil-safe).
	FaultEng *faults.Engine

	// Auditor is the shadow translation oracle (nil unless Spec.Audit).
	Auditor *audit.Oracle

	// IntRemap is the interrupt-remapping unit (nil unless Spec.IntRemap:
	// interrupts not modeled). IntAuditor is its shadow oracle (nil unless
	// Spec.Audit too).
	IntRemap   *intremap.Remapper
	IntAuditor *audit.IntOracle

	intSources map[pci.BDF][]*intremap.Source
	lifecycles map[pci.BDF]*Lifecycle

	// Protections records the protection driver created for each device,
	// so experiments can reach mode-specific knobs (e.g. the deferred
	// invalidation batch size).
	Protections map[pci.BDF]driver.Protection
}

// Spec describes one world: everything New wires is chosen here, before
// the world exists. It is a comparable value, so a Spec can key a map.
type Spec struct {
	Mode     Mode
	MemPages uint64 // pages of simulated memory

	// Model is the per-operation cost model every component charges; the
	// zero Model means cycles.DefaultModel(). The brcm setup's cheaper
	// per-op costs are cycles.DefaultModel().Scaled(0.5).
	Model cycles.Model

	// Inject installs a fault-injection engine built from Faults.
	Inject bool
	Faults faults.Config

	// Audit installs the shadow translation oracle. It never charges a
	// clock and never consumes randomness, so an audited world measures
	// exactly what an unaudited one does.
	Audit bool

	// IntRemap installs the interrupt-remapping unit, and with Audit also
	// its shadow oracle. Without it no device raises and no clock sees an
	// int-remap charge.
	IntRemap bool
}

// baselineMode maps the four baseline modes onto their Linux driver modes.
var baselineMode = [...]baseline.Mode{
	Strict: baseline.Strict, StrictPlus: baseline.StrictPlus,
	Defer: baseline.Defer, DeferPlus: baseline.DeferPlus,
}

// New builds the world sp describes. After the mode's translation hardware
// it installs, in this order, the fault engine, the translation oracle,
// the interrupt remapper and the interrupt oracle; every protection driver
// ProtectionFor builds later is wired to the first two. The unprotected
// modes (none, hwpt, swpt) run the oracles and the remapper in
// pass-through: drivers map nothing there, so no access they judge is a
// protection failure. The deferred modes remap interrupts with deferred IEC
// invalidation, the interrupt analog of the stale-IOTLB window.
func New(sp Spec) (*System, error) {
	mm, err := mem.New(sp.MemPages * mem.PageSize)
	if err != nil {
		return nil, err
	}
	if sp.Model == (cycles.Model{}) {
		sp.Model = cycles.DefaultModel()
	}
	s := &System{
		Mode:        sp.Mode,
		Model:       sp.Model,
		CPU:         &cycles.Clock{},
		Dev:         &cycles.Clock{},
		Mem:         mm,
		Protections: make(map[pci.BDF]driver.Protection),
	}

	switch sp.Mode {
	case None:
		s.Eng = dma.NewEngine(mm, iommu.Identity{})
	case Strict, StrictPlus, Defer, DeferPlus, HWpt, SWpt:
		if err := s.newBaseHW(); err != nil {
			return nil, err
		}
		s.BaseHW.PassThrough = sp.Mode == HWpt
		s.Eng = dma.NewEngine(mm, s.BaseHW)
	case RIOMMUMinus, RIOMMU:
		s.RHW = core.New(s.Dev, &s.Model, mm)
		s.Eng = dma.NewEngine(mm, s.RHW)
	default:
		return nil, fmt.Errorf("sim: unknown mode %d", int(sp.Mode))
	}

	if sp.Inject {
		s.FaultEng = faults.New(sp.Faults)
		s.Eng.SetFaults(s.FaultEng)
		s.Mem.SetFaultHook(s.FaultEng)
	}
	passThrough := sp.Mode == None || sp.Mode == HWpt || sp.Mode == SWpt
	if sp.Audit {
		s.Auditor = audit.NewOracle(sp.Mode.String(), s.CPU)
		s.Auditor.SetPassThrough(passThrough)
		s.Eng.SetAudit(s.Auditor)
		if s.RHW != nil {
			s.RHW.SetAudit(s.Auditor)
		}
	}
	if sp.IntRemap {
		cfg := intremap.Config{PassThrough: passThrough, DeferredInv: sp.Mode == Defer || sp.Mode == DeferPlus}
		if s.IntRemap, err = intremap.New(cfg, s.CPU, s.Dev, &s.Model); err != nil {
			return nil, err
		}
		if sp.Audit {
			s.IntAuditor = audit.NewIntOracle(sp.Mode.String(), s.CPU)
			s.IntAuditor.SetPassThrough(passThrough)
			s.IntRemap.SetObserver(s.IntAuditor)
		}
	}
	return s, nil
}

// newBaseHW builds the conventional IOMMU over a fresh context hierarchy.
func (s *System) newBaseHW() error {
	hier, err := pagetable.NewHierarchy(s.Mem)
	if err != nil {
		return err
	}
	s.BaseHW = iommu.New(s.Dev, &s.Model, hier, 0)
	return nil
}

// ProtectionFor builds the protection driver of the system's mode for one
// device, wires it to the world's fault engine and translation oracle, and
// records it in Protections. ringSizes are the rIOMMU flat-table sizes;
// the other modes ignore them. AttachNIC and AttachMQNIC build theirs here;
// the NVMe and SATA experiments call it directly.
func (s *System) ProtectionFor(bdf pci.BDF, ringSizes []uint32) (driver.Protection, error) {
	return s.protection(s.Mode, bdf, ringSizes)
}

// protection is ProtectionFor in the given mode, which DegradeToStrict
// sets to strict in an rIOMMU world.
func (s *System) protection(mode Mode, bdf pci.BDF, ringSizes []uint32) (driver.Protection, error) {
	var prot driver.Protection
	switch mode {
	case None:
		prot = driver.NoProtection{}
	case SWpt:
		if err := s.setupSWpt(bdf); err != nil {
			return nil, err
		}
		fallthrough
	case HWpt:
		prot = driver.PassThrough{Clk: s.CPU, Model: &s.Model}
	case Strict, StrictPlus, Defer, DeferPlus:
		// The paper's machines had I/O page walks incoherent with the CPU
		// caches (§3.2), hence the explicit flushes.
		d, err := baseline.New(baselineMode[mode], s.CPU, &s.Model, s.Mem, s.BaseHW, bdf, false)
		if err != nil {
			return nil, err
		}
		d.SetFaults(s.FaultEng)
		if s.Auditor != nil {
			d.SetAudit(s.Auditor)
			d.InvQueue().SetAudit(s.Auditor)
		}
		prot = d
	case RIOMMUMinus, RIOMMU:
		d, err := core.NewDriver(s.CPU, &s.Model, s.Mem, s.RHW, bdf, ringSizes, mode == RIOMMU)
		if err != nil {
			return nil, err
		}
		if s.Auditor != nil {
			d.SetAudit(s.Auditor)
		}
		prot = d
	}
	s.Protections[bdf] = prot
	return prot, nil
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
	prot, err := s.ProtectionFor(bdf, driver.RIOMMURingSizes(profile))
	if err != nil {
		return nil, nil, err
	}
	return driver.NewNICDriver(s.Mem, prot, s.Eng, profile, bdf)
}

// AttachMQNIC wires a multi-queue NIC (§2.3) into the system: `queues`
// independent ring pairs sharing one device identity and protection domain.
func (s *System) AttachMQNIC(profile device.NICProfile, bdf pci.BDF, queues int) (*driver.MQNIC, error) {
	prot, err := s.ProtectionFor(bdf, driver.RIOMMURingSizesQ(profile, queues))
	if err != nil {
		return nil, err
	}
	return driver.NewMQNIC(s.Mem, prot, s.Eng, profile, bdf, queues)
}

// ResetClocks zeroes both clocks; workloads call it after setup so that
// measurements cover only steady state.
func (s *System) ResetClocks() {
	s.CPU.Reset()
	s.Dev.Reset()
}

// CheckLive compares want, the mappings bdf's owners account for, with the
// live count of bdf's protection layer and, on an audited world, with the
// audit oracle's count for bdf, and returns an error naming both counts
// when they differ. A world that ends once its result is taken calls it
// instead of unmapping everything before Close: the check catches a mapping
// no owner accounts for without moving a simulated byte. Pass-through
// protections map nothing, so they pass.
func (s *System) CheckLive(bdf pci.BDF, want int) error {
	p, ok := s.Protections[bdf].(interface{ Live() int })
	if !ok {
		return nil
	}
	if n := p.Live(); n != want {
		return fmt.Errorf("sim: %s ends with %d live mappings in its protection layer, but its owners account for %d", bdf, n, want)
	}
	if s.Auditor != nil {
		if n := s.Auditor.LiveOf(bdf); n != want {
			return fmt.Errorf("sim: %s ends with %d live mappings in the audit oracle, but its owners account for %d", bdf, n, want)
		}
	}
	return nil
}

// Close releases the system's simulated memory backing into the shared
// pool (mem.PhysMem.Release), so the next world of the same memory size in
// an experiment or campaign grid reuses its page directory, pages and
// metadata instead of allocating them again. Nothing else is pooled: block
// devices' storage chunks are left to the collector. Close unmaps nothing:
// a world that ends once its result is taken checks its live mappings
// (CheckLive) and closes, and the backing goes back with frames still
// allocated and pinned, which the next life's mem.New resets. The system —
// and every driver, device, and engine built on it — must not be used
// afterwards. Closing is optional: an unclosed system is simply
// garbage-collected.
func (s *System) Close() {
	s.Mem.Release()
}
