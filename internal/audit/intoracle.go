package audit

import (
	"fmt"
	"sort"

	"riommu/internal/cycles"
	"riommu/internal/intremap"
	"riommu/internal/pci"
)

// Interrupt violation reasons. A violation is a *delivered* interrupt the
// shadow table says should not have reached that core; blocked messages are
// the hardware working and are only counted.
const (
	// IntReasonStale: delivery through an IRTE the OS had already freed —
	// the deferred-IEC window (interrupt analog of the stale-IOTLB window).
	IntReasonStale = "int-stale"
	// IntReasonUnmapped: delivery through an index the shadow table never
	// saw allocated (a wild vector that the hardware let through).
	IntReasonUnmapped = "int-unmapped"
	// IntReasonSpoof: delivered, but the wire-level requester does not own
	// the IRTE (source-id verification should have refused it).
	IntReasonSpoof = "int-spoof"
	// IntReasonWrongCore: delivered to a (vector, core) other than what the
	// live IRTE programs — an affinity/remap bypass.
	IntReasonWrongCore = "int-wrong-core"
)

// IntReasons returns every interrupt violation reason in report order.
func IntReasons() []string {
	return []string{IntReasonStale, IntReasonUnmapped, IntReasonSpoof, IntReasonWrongCore}
}

// IntViolation is one recorded interrupt-isolation breach.
type IntViolation struct {
	Mode   string
	Reason string
	BDF    pci.BDF // requester on the wire
	Index  int
	Vector uint8
	Core   int
	Cycle  uint64
	// StaleCycles is, for IntReasonStale, how long the IRTE had been freed
	// when the delivery landed.
	StaleCycles uint64
}

func (v IntViolation) String() string {
	return fmt.Sprintf("%s %s %s irte=%d vec=%#x core=%d cycle=%d",
		v.Mode, v.Reason, v.BDF, v.Index, v.Vector, v.Core, v.Cycle)
}

// intShadow is the oracle's independent copy of one IRTE.
type intShadow struct {
	BDF      pci.BDF
	Vector   uint8
	DestCore int
}

// intRetired is a freed shadow entry kept as a tombstone.
type intRetired struct {
	intShadow
	Index     int
	FreeCycle uint64
}

// intRetiredCap bounds the tombstone history; it covers a full deferred IEC
// batch with room to spare.
const intRetiredCap = 256

// IntOracle is the interrupt shadow oracle: an independent record of the
// live interrupt-remap table, maintained purely from the OS-side
// alloc/free mirror, judging every delivered interrupt. Like the
// DMA Oracle it is a pure observer — no clock charges, no randomness — so
// enabling it cannot change any simulated metric.
//
// It implements intremap.Observer.
type IntOracle struct {
	mode string
	clk  *cycles.Clock

	// passThrough disables judgment: the none/hwpt/swpt modes have no
	// remapping hardware, so nothing the oracle could flag is a protection
	// failure there.
	passThrough bool

	live    map[int]intShadow
	retired []intRetired

	// Aggregate counters.
	Delivered  uint64 // interrupts that reached a core
	Blocked    uint64 // messages the hardware refused
	Violations uint64 // delivered interrupts the shadow table disowns
	ByReason   map[string]uint64
	ByOutcome  map[string]uint64 // blocked counts keyed by intremap.Outcome.String()
	Events     []IntViolation

	// Mirror-traffic counters.
	Allocs, Frees     uint64
	LiveNow, LivePeak int
}

// NewIntOracle creates an interrupt oracle for a system in the named mode.
// clk is read (never charged) to stamp events.
func NewIntOracle(mode string, clk *cycles.Clock) *IntOracle {
	return &IntOracle{
		mode:      mode,
		clk:       clk,
		live:      make(map[int]intShadow),
		ByReason:  make(map[string]uint64),
		ByOutcome: make(map[string]uint64),
	}
}

// Mode returns the protection-mode label events carry.
func (o *IntOracle) Mode() string { return o.mode }

// SetPassThrough switches the oracle to counting-only mode.
func (o *IntOracle) SetPassThrough(v bool) { o.passThrough = v }

// OnIRTEAlloc mirrors an IRTE programming.
func (o *IntOracle) OnIRTEAlloc(index int, e intremap.IRTE) {
	o.Allocs++
	if _, dup := o.live[index]; !dup {
		o.LiveNow++
		if o.LiveNow > o.LivePeak {
			o.LivePeak = o.LiveNow
		}
	}
	o.live[index] = intShadow{BDF: e.BDF, Vector: e.Vector, DestCore: e.DestCore}
}

// OnIRTEFree mirrors an IRTE teardown.
func (o *IntOracle) OnIRTEFree(index int, e intremap.IRTE) {
	o.Frees++
	s, ok := o.live[index]
	if !ok {
		s = intShadow{BDF: e.BDF, Vector: e.Vector, DestCore: e.DestCore}
	} else {
		delete(o.live, index)
		o.LiveNow--
	}
	o.retired = append(o.retired, intRetired{intShadow: s, Index: index, FreeCycle: o.clk.Now()})
	if len(o.retired) > intRetiredCap {
		o.retired = append(o.retired[:0:0], o.retired[len(o.retired)-intRetiredCap:]...)
	}
}

// OnIntDelivered judges one delivered interrupt against the shadow table.
func (o *IntOracle) OnIntDelivered(d intremap.Delivery) {
	o.Delivered++
	if o.passThrough {
		return
	}
	if s, ok := o.live[d.Index]; ok {
		switch {
		case s.BDF != d.Source:
			o.violate(IntViolation{Reason: IntReasonSpoof, BDF: d.Source, Index: d.Index, Vector: d.Vector, Core: d.Core})
		case s.Vector != d.Vector || s.DestCore != d.Core:
			o.violate(IntViolation{Reason: IntReasonWrongCore, BDF: d.Source, Index: d.Index, Vector: d.Vector, Core: d.Core})
		}
		return
	}
	// No live shadow entry: stale if recently freed, wild otherwise.
	for i := len(o.retired) - 1; i >= 0; i-- {
		if o.retired[i].Index == d.Index {
			r := o.retired[i]
			reason := IntReasonStale
			if r.BDF != d.Source {
				reason = IntReasonSpoof
			}
			o.violate(IntViolation{
				Reason: reason, BDF: d.Source, Index: d.Index, Vector: d.Vector, Core: d.Core,
				StaleCycles: o.clk.Now() - r.FreeCycle,
			})
			return
		}
	}
	o.violate(IntViolation{Reason: IntReasonUnmapped, BDF: d.Source, Index: d.Index, Vector: d.Vector, Core: d.Core})
}

// OnIntBlocked counts a refused message (the hardware doing its job).
func (o *IntOracle) OnIntBlocked(_ pci.BDF, _ int, out intremap.Outcome) {
	o.Blocked++
	o.ByOutcome[out.String()]++
}

// LiveSortedFor returns bdf's live IRTE indices in ascending order — the
// deterministic view chaos scenarios pick spoof targets from.
func (o *IntOracle) LiveSortedFor(bdf pci.BDF) []int {
	var out []int
	// maporder: the indices are sorted before they are returned.
	for idx, s := range o.live {
		if s.BDF == bdf {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// RecentFreedFor returns up to n of bdf's freed IRTE indices, newest first
// (the stale-replay target list).
func (o *IntOracle) RecentFreedFor(bdf pci.BDF, n int) []int {
	var out []int
	for i := len(o.retired) - 1; i >= 0 && len(out) < n; i-- {
		if o.retired[i].BDF == bdf {
			out = append(out, o.retired[i].Index)
		}
	}
	return out
}

func (o *IntOracle) violate(v IntViolation) {
	v.Mode = o.mode
	v.Cycle = o.clk.Now()
	o.Violations++
	o.ByReason[v.Reason]++
	if len(o.Events) < maxEvents {
		o.Events = append(o.Events, v)
	}
}
