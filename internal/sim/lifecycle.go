package sim

import (
	"fmt"

	"riommu/internal/baseline"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/pci"
)

// DevState is a device's position in the hot-plug lifecycle.
type DevState int

// The lifecycle states. A device the OS has never seen is Detached; a
// surprise removal (the cable yanked with mappings live) lands in
// SurpriseRemoved, from which the OS either quarantines the slot or
// re-attaches a (new) device.
const (
	Detached DevState = iota
	Attaching
	Live
	SurpriseRemoved
	Quarantined
)

// String names the state.
func (s DevState) String() string {
	switch s {
	case Detached:
		return "detached"
	case Attaching:
		return "attaching"
	case Live:
		return "live"
	case SurpriseRemoved:
		return "surprise-removed"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Lifecycle is the per-slot hot-plug state machine. Transitions charge the
// CPU clock's Recovery component (they are OS work: config-space setup,
// teardown, route changes), so enabling lifecycle tracking without ever
// transitioning costs nothing.
type Lifecycle struct {
	sys   *System
	bdf   pci.BDF
	state DevState
	iso   driver.Isolator // lazily built; isolates the slot's DMA route

	// Counters and timeline marks for the campaign's SLO accounting.
	Attaches    uint64
	Removals    uint64
	Quarantines uint64
	RemovedAt   uint64 // CPU cycle of the most recent surprise removal
	RestoredAt  uint64 // CPU cycle of the most recent return to Live after one

	// Cumulative outage ledger: every removal→restore interval, summed, so
	// MTTR and availability (driver.SLOStats) survive multiple removals of
	// one slot.
	Outages        uint64
	DowntimeCycles uint64
}

// LifecycleFor returns (creating on first use) the lifecycle tracker for a
// slot. A fresh tracker is Detached.
func (s *System) LifecycleFor(bdf pci.BDF) *Lifecycle {
	if s.lifecycles == nil {
		s.lifecycles = make(map[pci.BDF]*Lifecycle)
	}
	lc := s.lifecycles[bdf]
	if lc == nil {
		lc = &Lifecycle{sys: s, bdf: bdf}
		s.lifecycles[bdf] = lc
	}
	return lc
}

// State returns the current lifecycle state.
func (lc *Lifecycle) State() DevState { return lc.state }

// BDF returns the slot identity.
func (lc *Lifecycle) BDF() pci.BDF { return lc.bdf }

func (lc *Lifecycle) badTransition(to DevState) error {
	return fmt.Errorf("sim: %s lifecycle %s → %s not permitted", lc.bdf, lc.state, to)
}

// BeginAttach starts bringing a device in the slot up: allowed from
// Detached (first hot-add), SurpriseRemoved (replug), or Quarantined (the
// operator clears the slot). The caller then attaches rings/protection and
// finishes with CompleteAttach.
func (lc *Lifecycle) BeginAttach() error {
	switch lc.state {
	case Detached, SurpriseRemoved, Quarantined:
	default:
		return lc.badTransition(Attaching)
	}
	lc.sys.CPU.Charge(cycles.Recovery, lc.sys.Model.HotAttach)
	lc.state = Attaching
	return nil
}

// CompleteAttach marks the device Live and restores its DMA route if a
// previous removal had blackholed it.
func (lc *Lifecycle) CompleteAttach() error {
	if lc.state != Attaching {
		return lc.badTransition(Live)
	}
	if lc.iso != nil {
		if err := lc.iso.Readmit(); err != nil {
			return err
		}
	}
	wasRemoved := lc.RemovedAt != 0 && lc.RestoredAt < lc.RemovedAt
	lc.state = Live
	lc.Attaches++
	if wasRemoved {
		lc.RestoredAt = lc.sys.CPU.Now()
		lc.Outages++
		lc.DowntimeCycles += lc.RestoredAt - lc.RemovedAt
	}
	return nil
}

// SurpriseRemove models the device vanishing with mappings and in-flight
// invalidations live. The OS response, in order: blackhole the slot's DMA
// route (posted writes from a ghost must fault, not land), drop every
// pending interrupt and free the slot's IRTEs (a vanished device must never
// deliver), and drain any in-flight invalidation work the device's
// protection driver had queued, so the IOMMU state is consistent before
// the slot is reused.
func (lc *Lifecycle) SurpriseRemove() error {
	if lc.state != Live {
		return lc.badTransition(SurpriseRemoved)
	}
	s := lc.sys
	if lc.iso == nil {
		lc.iso = s.IsolatorFor(lc.bdf)
	}
	if err := lc.iso.Isolate(); err != nil {
		return err
	}
	s.DropIntSources(lc.bdf)
	if s.IntRemap != nil {
		s.IntRemap.FreeBDF(lc.bdf)
		s.IntRemap.FlushIEC()
	}
	if bd, ok := s.Protections[lc.bdf].(*baseline.Driver); ok {
		_ = bd.FlushPending()
	}
	s.CPU.Charge(cycles.Recovery, s.Model.HotDetach)
	lc.state = SurpriseRemoved
	lc.Removals++
	lc.RemovedAt = s.CPU.Now()
	return nil
}

// Quarantine parks a removed slot: the blackhole route stays, and only an
// explicit BeginAttach (operator action) leaves the state.
func (lc *Lifecycle) Quarantine() error {
	if lc.state != SurpriseRemoved {
		return lc.badTransition(Quarantined)
	}
	lc.state = Quarantined
	lc.Quarantines++
	return nil
}

// DetachProtection tears down the per-device translation structures so the
// slot can be re-attached (the context-table entry of the baseline modes,
// the flat tables of the rIOMMU). Mappings the vanished device still held
// die with the structures — exactly surprise-removal semantics. A slot with
// no protection attached is a no-op.
func (s *System) DetachProtection(bdf pci.BDF) error {
	if _, ok := s.Protections[bdf]; !ok {
		return nil
	}
	delete(s.Protections, bdf)
	switch s.Mode {
	case RIOMMUMinus, RIOMMU:
		return s.RHW.DetachDevice(bdf)
	case Strict, StrictPlus, Defer, DeferPlus, SWpt:
		if err := s.BaseHW.Hierarchy().Detach(bdf); err != nil {
			return err
		}
		// Domain invalidation: cached translations of the vanished
		// device must not serve its successor (the successor's fresh
		// allocator reuses the same IOVA values).
		s.BaseHW.TLB().Flush()
		return nil
	}
	return nil
}

// HotAttachMQNIC is the full hot-add sequence for a multi-queue NIC:
// lifecycle BeginAttach, teardown of any previous occupant's translation
// structures, fresh protection + rings + device model, interrupt wiring
// (direct dispatch, not posted) when remapping is enabled, and
// CompleteAttach (which also restores a blackholed DMA route). It works
// from Detached, SurpriseRemoved, and Quarantined.
func (s *System) HotAttachMQNIC(profile device.NICProfile, bdf pci.BDF, queues int) (*driver.MQNIC, error) {
	lc := s.LifecycleFor(bdf)
	if err := lc.BeginAttach(); err != nil {
		return nil, err
	}
	if err := s.DetachProtection(bdf); err != nil {
		return nil, err
	}
	mq, err := s.AttachMQNIC(profile, bdf, queues)
	if err != nil {
		return nil, err
	}
	if s.IntRemap != nil {
		if err := s.WireMQNICInterrupts(mq, bdf, false); err != nil {
			return nil, err
		}
	}
	if err := lc.CompleteAttach(); err != nil {
		return nil, err
	}
	return mq, nil
}
