package sim

import (
	"fmt"

	"riommu/internal/baseline"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/iommu"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

// EnableFaults creates a fault-injection engine from cfg and threads it
// through every simulated layer of the system: the DMA engine (stale-IOVA
// redirection; device models reach it from there for descriptor flips and
// hangs), simulated physical memory (read/write corruption, poisoned
// cachelines), and the invalidation queue of every baseline protection
// driver — both the ones already created and the ones created later.
func (s *System) EnableFaults(cfg faults.Config) *faults.Engine {
	f := faults.New(cfg)
	s.FaultEng = f
	s.Eng.SetFaults(f)
	s.Mem.SetFaultHook(f)
	// maporder: each baseline driver is handed the same engine on its own;
	// none draws from it here.
	for _, p := range s.Protections {
		if bd, ok := p.(*baseline.Driver); ok {
			bd.SetFaults(f)
		}
	}
	orig := s.protFor
	s.protFor = func(bdf pci.BDF, ringSizes []uint32) (driver.Protection, error) {
		p, err := orig(bdf, ringSizes)
		if err == nil {
			if bd, ok := p.(*baseline.Driver); ok {
				bd.SetFaults(f)
			}
		}
		return p, err
	}
	return f
}

// DegradeToStrict builds a strict-mode baseline protection path for one
// device of an rIOMMU-mode system: a conventional IOMMU (created lazily on
// first use) is spliced in via a dma.Router whose default route keeps every
// other device on the rIOMMU, and a strict baseline driver is returned for
// the caller to Reattach the device driver to. This is the graceful-
// degradation endpoint: when a device keeps faulting under rIOMMU, the OS
// falls back to the always-safe strict mode for that device only (§4 frames
// rIOMMU as a supplement to, not a replacement for, the baseline IOMMU).
func (s *System) DegradeToStrict(bdf pci.BDF) (driver.Protection, error) {
	if s.RHW == nil {
		return nil, fmt.Errorf("sim: mode %s has no rIOMMU to degrade from", s.Mode)
	}
	if s.BaseHW == nil {
		hier, err := pagetable.NewHierarchy(s.Mem)
		if err != nil {
			return nil, err
		}
		s.BaseHW = iommu.New(s.Dev, &s.Model, hier, 0)
	}
	router, ok := s.Eng.Translator().(*dma.Router)
	if !ok {
		router = dma.NewRouter()
		router.SetDefault(s.Eng.Translator())
		s.Eng.SetTranslator(router)
	}
	router.Route(bdf, s.BaseHW)
	prot, err := baseline.New(baseline.Strict, s.CPU, &s.Model, s.Mem, s.BaseHW, bdf, false)
	if err != nil {
		return nil, err
	}
	if s.FaultEng != nil {
		prot.SetFaults(s.FaultEng)
	}
	if s.Auditor != nil {
		s.auditProtection(prot)
	}
	s.Protections[bdf] = prot
	return prot, nil
}

// Reattacher is the driver capability DegradeToStrict's callers use to move
// a device driver onto the degraded protection path.
type Reattacher interface {
	Reattach(driver.Protection) error
}

// Supervise builds a recovery supervisor for one device driver, charged to
// the system's CPU clock. In rIOMMU modes, drivers that support Reattach get
// a degradation path to strict baseline protection wired in; other modes
// recover in place.
func (s *System) Supervise(bdf pci.BDF, target driver.Recoverable) *driver.Supervisor {
	sup := driver.NewSupervisor(s.CPU, bdf, target)
	if s.Mode == RIOMMU || s.Mode == RIOMMUMinus {
		if ra, ok := target.(Reattacher); ok {
			sup.DegradeFn = func() error {
				prot, err := s.DegradeToStrict(bdf)
				if err != nil {
					return err
				}
				return ra.Reattach(prot)
			}
		}
	}
	return sup
}
