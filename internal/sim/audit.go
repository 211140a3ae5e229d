package sim

import (
	"riommu/internal/audit"
	"riommu/internal/baseline"
	"riommu/internal/core"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/pci"
)

// EnableAudit installs a shadow translation oracle and mirrors every layer
// into it: map/unmap from each protection driver (existing and future), the
// hardware-side invalidations that actually reach the IOTLB/rIOTLB, and —
// via the DMA engine — every translated access, which the oracle judges
// against its independent record. The oracle never charges a clock and never
// consumes randomness, so an audited system's measured metrics are identical
// to an unaudited one's.
//
// In the unprotected modes (none, hwpt, swpt) the oracle runs in
// pass-through: drivers map nothing there, so every DMA is outside its live
// set by construction without being a protection failure.
func (s *System) EnableAudit() *audit.Oracle {
	if s.Auditor != nil {
		return s.Auditor
	}
	orc := audit.NewOracle(s.Mode.String(), s.CPU)
	switch s.Mode {
	case None, HWpt, SWpt:
		orc.SetPassThrough(true)
	}
	s.Auditor = orc
	s.Eng.SetAudit(orc)
	if s.RHW != nil {
		s.RHW.SetAudit(orc)
	}
	// maporder: each device's protection is wired to the same oracle on
	// its own.
	for _, p := range s.Protections {
		s.auditProtection(p)
	}
	orig := s.protFor
	s.protFor = func(bdf pci.BDF, ringSizes []uint32) (driver.Protection, error) {
		p, err := orig(bdf, ringSizes)
		if err == nil {
			s.auditProtection(p)
		}
		return p, err
	}
	return orc
}

// auditProtection mirrors one protection driver into the oracle. Only the
// mapping-maintaining drivers observe anything; pass-through protections have
// nothing to mirror.
func (s *System) auditProtection(p driver.Protection) {
	switch d := p.(type) {
	case *baseline.Driver:
		d.SetAudit(s.Auditor)
		d.InvQueue().SetAudit(s.Auditor)
	case *core.Driver:
		d.SetAudit(s.Auditor)
	}
}

// routeIsolator quarantines one device by splicing a Blackhole into its
// dma.Router route, remembering the previous route for re-admission.
type routeIsolator struct {
	router   *dma.Router
	bdf      pci.BDF
	saved    dma.Translator
	hadRoute bool
	isolated bool
}

func (ri *routeIsolator) Isolate() error {
	if ri.isolated {
		return nil
	}
	ri.saved, ri.hadRoute = ri.router.RouteOf(ri.bdf)
	ri.router.Route(ri.bdf, dma.Blackhole{})
	ri.isolated = true
	return nil
}

func (ri *routeIsolator) Readmit() error {
	if !ri.isolated {
		return nil
	}
	if ri.hadRoute {
		ri.router.Route(ri.bdf, ri.saved)
	} else {
		ri.router.Unroute(ri.bdf)
	}
	ri.isolated = false
	return nil
}

// IsolatorFor returns a driver.Isolator that physically detaches the device
// from its translation path (every DMA faults) and can re-admit it; wire it
// into a Supervisor's circuit breaker. Like DegradeToStrict, it splices a
// dma.Router in front of the current translator on first use, so every other
// device keeps its unit through the default route.
func (s *System) IsolatorFor(bdf pci.BDF) driver.Isolator {
	router, ok := s.Eng.Translator().(*dma.Router)
	if !ok {
		router = dma.NewRouter()
		router.SetDefault(s.Eng.Translator())
		s.Eng.SetTranslator(router)
	}
	return &routeIsolator{router: router, bdf: bdf}
}
