package sim

import (
	"fmt"

	"riommu/internal/driver"
	"riommu/internal/pci"
)

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
		if err := s.newBaseHW(); err != nil {
			return nil, err
		}
	}
	s.router().Route(bdf, s.BaseHW)
	return s.protection(Strict, bdf, nil)
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
