package sim

import (
	"riommu/internal/driver"
	"riommu/internal/intremap"
	"riommu/internal/pci"
)

// WireNICInterrupts allocates queue q's MSI-X vector pair targeting
// destCore and wires it into both halves of the driver: the device model
// raises, the reap paths fire. Requires a world built with Spec.IntRemap.
func (s *System) WireNICInterrupts(drv *driver.NICDriver, bdf pci.BDF, q, destCore int, posted bool) (*intremap.Source, error) {
	src, err := s.IntRemap.NewSource(bdf, q, destCore, posted)
	if err != nil {
		return nil, err
	}
	drv.SetIRQ(src)
	if s.intSources == nil {
		s.intSources = make(map[pci.BDF][]*intremap.Source)
	}
	s.intSources[bdf] = append(s.intSources[bdf], src)
	return src, nil
}

// WireMQNICInterrupts wires every queue of a multi-queue NIC, queue q
// targeting core q (the standard affinity layout; single-core systems pass
// every interrupt through core 0's timeline only when queues=1).
func (s *System) WireMQNICInterrupts(mq *driver.MQNIC, bdf pci.BDF, posted bool) error {
	for q, drv := range mq.Queues {
		if _, err := s.WireNICInterrupts(drv, bdf, q, q, posted); err != nil {
			return err
		}
	}
	return nil
}

// DropIntSources closes every interrupt source of bdf: pending raises are
// discarded (never delivered) and the IRTEs freed. Surprise removal and
// detach both route through here.
func (s *System) DropIntSources(bdf pci.BDF) int {
	n := 0
	for _, src := range s.intSources[bdf] {
		if !src.Closed() {
			src.Close()
			n++
		}
	}
	delete(s.intSources, bdf)
	return n
}
