// Package intremap models the interrupt-remapping half of the IOMMU: the
// VT-d-style interrupt remap table (IRT), its per-entry interrupt entry
// cache (IEC), and the delivery path that turns a device's remappable-format
// MSI/MSI-X message into a (vector, core) dispatch — or blocks it.
//
// The paper (§2, §6) models only DMA translation; this package supplies the
// other half so the chaos campaigns can exercise the full hot-plug attack
// surface: an interrupt from a hostile or vanished device must never reach a
// core it does not own. The same costing discipline applies as on the DMA
// side: every hardware walk, cache hit, invalidation, and dispatch charges a
// virtual clock (component cycles.IntRemap), and the deferred modes reuse
// the batched-invalidation trade-off — a freed IRTE may keep delivering from
// the IEC until the amortized global flush, the interrupt analog of the
// stale-IOTLB window.
package intremap

import (
	"errors"
	"fmt"

	"riommu/internal/pci"
)

// IRTE is one interrupt-remap-table entry: the remapped destination of a
// remappable-format MSI, gated by the source-id (BDF) of the requester.
type IRTE struct {
	Present  bool
	BDF      pci.BDF // source-id the requester must match (SVT verification)
	Vector   uint8   // remapped vector delivered to the core
	DestCore int     // destination core (APIC destination analog)
	Posted   bool    // posted delivery (descriptor write + notify) vs direct dispatch
}

// Table errors.
var (
	ErrTableFull   = errors.New("intremap: remap table full")
	ErrBadIndex    = errors.New("intremap: IRTE index out of range")
	ErrNotPresent  = errors.New("intremap: IRTE not present")
	ErrVectorInUse = errors.New("intremap: vector already allocated for source")
	ErrTableGeom   = errors.New("intremap: table size must be a power of two")
)

// Table is the in-memory interrupt remap table: a power-of-two array of
// IRTEs with lowest-free-index allocation (deterministic, like the hardware
// table the OS scans for a free slot). It additionally enforces the OS-level
// invariant that a (source BDF, vector) pair maps to at most one live IRTE,
// so vectors never alias across entries of the same device.
type Table struct {
	entries []IRTE
	live    int
	hint    int             // lowest possibly-free index
	byKey   map[uint32]int  // (bdf,vector) -> live index
	byBDF   map[pci.BDF]int // live-entry count per source
}

func key(bdf pci.BDF, vector uint8) uint32 {
	return uint32(bdf)<<8 | uint32(vector)
}

// NewTable builds a table with 2^order entries (order 0..15).
func NewTable(order int) (*Table, error) {
	if order < 0 || order > 15 {
		return nil, fmt.Errorf("%w: order %d", ErrTableGeom, order)
	}
	return &Table{
		entries: make([]IRTE, 1<<order),
		byKey:   make(map[uint32]int),
		byBDF:   make(map[pci.BDF]int),
	}, nil
}

// Size returns the number of table slots.
func (t *Table) Size() int { return len(t.entries) }

// Live returns the number of present entries.
func (t *Table) Live() int { return t.live }

// LiveFor returns the number of present entries owned by bdf.
func (t *Table) LiveFor(bdf pci.BDF) int { return t.byBDF[bdf] }

// At returns a copy of the entry at index and whether the index is in range.
func (t *Table) At(index int) (IRTE, bool) {
	if index < 0 || index >= len(t.entries) {
		return IRTE{}, false
	}
	return t.entries[index], true
}

// Alloc claims the lowest free slot for (bdf, vector) targeting destCore.
func (t *Table) Alloc(bdf pci.BDF, vector uint8, destCore int, posted bool) (int, error) {
	if _, dup := t.byKey[key(bdf, vector)]; dup {
		return -1, fmt.Errorf("%w: %s vector %#x", ErrVectorInUse, bdf, vector)
	}
	if t.live == len(t.entries) {
		return -1, ErrTableFull
	}
	i := t.hint
	for t.entries[i].Present {
		i++
		if i == len(t.entries) {
			i = 0
		}
	}
	t.entries[i] = IRTE{Present: true, BDF: bdf, Vector: vector, DestCore: destCore, Posted: posted}
	t.live++
	t.hint = i + 1
	if t.hint == len(t.entries) {
		t.hint = 0
	}
	t.byKey[key(bdf, vector)] = i
	t.byBDF[bdf]++
	return i, nil
}

// Free clears the entry at index.
func (t *Table) Free(index int) error {
	if index < 0 || index >= len(t.entries) {
		return ErrBadIndex
	}
	e := t.entries[index]
	if !e.Present {
		return ErrNotPresent
	}
	delete(t.byKey, key(e.BDF, e.Vector))
	if t.byBDF[e.BDF]--; t.byBDF[e.BDF] == 0 {
		delete(t.byBDF, e.BDF)
	}
	t.entries[index] = IRTE{}
	t.live--
	if index < t.hint {
		t.hint = index
	}
	return nil
}
