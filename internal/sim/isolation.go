package sim

import (
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/pci"
)

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
	return &routeIsolator{router: s.router(), bdf: bdf}
}

// router returns the dma.Router in front of the DMA engine's translator,
// splicing one in on first use with the current translator as its default
// route.
func (s *System) router() *dma.Router {
	r, ok := s.Eng.Translator().(*dma.Router)
	if !ok {
		r = dma.NewRouter()
		r.SetDefault(s.Eng.Translator())
		s.Eng.SetTranslator(r)
	}
	return r
}
