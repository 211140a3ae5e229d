package iommu

import (
	"fmt"

	"riommu/internal/faults"
	"riommu/internal/iotlb"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Queued invalidation: VT-d's actual invalidation interface. The OS does
// not poke IOTLB entries directly — it writes invalidation descriptors into
// an in-memory queue, advances a tail register, and (when it needs
// completion) appends a wait descriptor and spins on its status word. The
// ~2,127 cycles Table 1 charges per strict-mode unmap is exactly one
// submit + wait round trip through this machinery.
//
// InvDescriptor layout (16 bytes, simplified from the VT-d spec):
// word 0 packs the type (low 8 bits) and the BDF (bits 16..32);
// word 1 holds the IOVA page for per-entry invalidations, or the status
// address for wait descriptors.
const (
	invDescBytes = 16
	// invSlots is the number of descriptors in the one-page queue, a power
	// of two, so a cursor wraps by masking.
	invSlots = mem.PageSize / invDescBytes

	// Descriptor types.
	invTypeEntry  = 0x1 // invalidate one IOTLB entry
	invTypeGlobal = 0x2 // flush the whole IOTLB
	invTypeWait   = 0x5 // write 1 to the status address when reached
)

// InvQueue is the in-memory invalidation queue plus the hardware's
// processing logic. The simulated hardware drains the queue when a wait
// descriptor demands completion (real hardware drains asynchronously; the
// paper's cost model charges the full round trip to the waiting CPU either
// way). The queue is purely mechanical — the OS driver accounts the cycles.
type InvQueue struct {
	mm  *mem.PhysMem
	tlb *iotlb.IOTLB

	base   mem.PFN
	head   uint32 // hardware cursor
	tail   uint32 // OS cursor
	status mem.PA // wait-descriptor status word

	// Processed counts drained descriptors (excluding waits).
	Processed uint64
	// Waits counts completed wait descriptors.
	Waits uint64

	// inj, when set, may drop or delay entry/global invalidations (modeling
	// hardware errata); wait descriptors are never perturbed, so the OS spin
	// loop always terminates. delayed holds invalidations deferred to the
	// start of the next drain.
	inj           *faults.Engine
	delayed       []iotlb.Key
	delayedGlobal bool
	// Dropped and Delayed count perturbed invalidation descriptors.
	Dropped, Delayed uint64

	aud InvObserver
}

// InvObserver mirrors applied invalidations into an external shadow tracker;
// *audit.Oracle satisfies it. Only invalidations that actually reach the
// IOTLB are mirrored — dropped or delayed descriptors are not, so the
// observer sees hardware truth, not OS intent.
type InvObserver interface {
	OnInvalidate(bdf pci.BDF, iovaPFN uint64)
	OnFlush()
}

// SetFaults installs the fault-injection engine (nil disables injection).
func (q *InvQueue) SetFaults(f *faults.Engine) { q.inj = f }

// SetAudit installs an invalidation observer (nil disables mirroring).
func (q *InvQueue) SetAudit(o InvObserver) { q.aud = o }

// NewInvQueue allocates a one-page queue (256 descriptors) plus a status word.
func NewInvQueue(mm *mem.PhysMem, tlb *iotlb.IOTLB) (*InvQueue, error) {
	qf, err := mm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("iommu: allocating invalidation queue: %w", err)
	}
	sf, err := mm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("iommu: allocating wait status: %w", err)
	}
	return &InvQueue{
		mm:     mm,
		tlb:    tlb,
		base:   qf,
		status: sf.PA(),
	}, nil
}

func (q *InvQueue) slotPA(i uint32) mem.PA {
	return q.base.PA() + mem.PA((i&(invSlots-1))*invDescBytes)
}

// push writes one descriptor at the OS tail.
func (q *InvQueue) push(typ uint8, bdf pci.BDF, word1 uint64) error {
	if (q.tail+1)&(invSlots-1) == q.head {
		// The queue never legitimately fills: the OS waits after small
		// batches. Treat it as a driver bug.
		return fmt.Errorf("iommu: invalidation queue full")
	}
	pa := q.slotPA(q.tail)
	if err := q.mm.WriteU64(pa, uint64(typ)|uint64(bdf)<<16); err != nil {
		return err
	}
	if err := q.mm.WriteU64(pa+8, word1); err != nil {
		return err
	}
	q.tail = (q.tail + 1) & (invSlots - 1)
	return nil
}

// SubmitEntry queues a single-entry invalidation (no wait).
func (q *InvQueue) SubmitEntry(bdf pci.BDF, iovaPFN uint64) error {
	return q.push(invTypeEntry, bdf, iovaPFN)
}

// SubmitGlobal queues a whole-IOTLB flush (no wait).
func (q *InvQueue) SubmitGlobal() error {
	return q.push(invTypeGlobal, 0, 0)
}

// Wait appends a wait descriptor, rings the tail register, and spins until
// the hardware writes the status word — the synchronous completion point
// whose ~2,127-cycle cost Table 1 measures (charged by the calling driver).
func (q *InvQueue) Wait() error {
	if err := q.mm.WriteU64(q.status, 0); err != nil {
		return err
	}
	if err := q.push(invTypeWait, 0, uint64(q.status)); err != nil {
		return err
	}
	if err := q.drain(); err != nil {
		return err
	}
	// The spin loop observes the status write.
	v, err := q.mm.ReadU64(q.status)
	if err != nil {
		return err
	}
	if v != 1 {
		return fmt.Errorf("iommu: wait descriptor did not complete (status=%d)", v)
	}
	return nil
}

// drain is the hardware side: consume descriptors from head to tail. Any
// invalidations a fault deferred during the previous drain are applied first,
// so a delayed invalidation opens exactly a one-drain stale window.
func (q *InvQueue) drain() error {
	if q.delayedGlobal {
		q.tlb.Flush()
		q.delayedGlobal = false
		q.Processed++
		if q.aud != nil {
			q.aud.OnFlush()
		}
	}
	for _, k := range q.delayed {
		q.tlb.Invalidate(k)
		q.Processed++
		if q.aud != nil {
			q.aud.OnInvalidate(k.BDF, k.IOVAPFN)
		}
	}
	q.delayed = q.delayed[:0]
	for q.head != q.tail {
		pa := q.slotPA(q.head)
		w0, err := q.mm.ReadU64(pa)
		if err != nil {
			return err
		}
		w1, err := q.mm.ReadU64(pa + 8)
		if err != nil {
			return err
		}
		switch uint8(w0) {
		case invTypeEntry:
			key := iotlb.Key{BDF: pci.BDF(w0 >> 16), IOVAPFN: w1}
			if q.inj.DropInvalidation(key.BDF, w1) {
				q.Dropped++
			} else if q.inj.DelayInvalidation(key.BDF, w1) {
				q.delayed = append(q.delayed, key)
				q.Delayed++
			} else {
				q.tlb.Invalidate(key)
				q.Processed++
				if q.aud != nil {
					q.aud.OnInvalidate(key.BDF, w1)
				}
			}
		case invTypeGlobal:
			if q.inj.DropInvalidation(0, 0) {
				q.Dropped++
			} else if q.inj.DelayInvalidation(0, 0) {
				q.delayedGlobal = true
				q.Delayed++
			} else {
				q.tlb.Flush()
				q.Processed++
				if q.aud != nil {
					q.aud.OnFlush()
				}
			}
		case invTypeWait:
			if err := q.mm.WriteU64(mem.PA(w1), 1); err != nil {
				return err
			}
			q.Waits++
		default:
			return fmt.Errorf("iommu: bad invalidation descriptor type %#x", uint8(w0))
		}
		q.head = (q.head + 1) & (invSlots - 1)
	}
	return nil
}
