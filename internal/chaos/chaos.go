// Package chaos implements a hostile-device model: a device that issues the
// DMAs intra-OS protection exists to stop. Each scenario is one attack the
// paper's threat model (§2.1) names — replaying translations for buffers the
// OS already reclaimed (the deferred modes' stale-IOTLB window), running past
// a sub-page buffer's bounds (the baseline's page-granularity gap, §4),
// writing through read-only mappings, flooding the invalidation queue, and
// multi-fault cascades layered on the injection engine.
//
// A Hostile drives its DMAs through the regular dma.Engine, so the
// protection hardware judges them exactly as it judges legitimate traffic:
// an attempt the translator rejects is contained; one it translates lands in
// memory and is then judged by the audit oracle. Target selection reads only
// the oracle's deterministic views (LiveFirst, RecentRetired) and consumes
// no randomness, so a chaos campaign cell is a pure function of its seed.
package chaos

import (
	"fmt"
	"slices"
	"strings"

	"riommu/internal/audit"
	"riommu/internal/dma"
	"riommu/internal/pci"
)

// Scenario names one hostile-device behavior.
type Scenario string

// The hostile-device scenarios.
const (
	// StaleReplay re-issues DMAs to recently unmapped buffers — the access a
	// stale IOTLB entry would let through during the deferred-invalidation
	// window.
	StaleReplay Scenario = "stale-replay"
	// Overreach starts inside a live sub-page buffer and runs past its byte
	// bounds — contained only by byte-granular (rIOMMU) protection.
	Overreach Scenario = "overreach"
	// ROWrite writes through mappings that only permit device reads.
	ROWrite Scenario = "ro-write"
	// InvFlood churns map/unmap on a second device to flood the invalidation
	// queue while the victim device runs its workload.
	InvFlood Scenario = "inv-flood"
	// Cascade layers stale replays on top of a multi-fault burst from the
	// injection engine (faults.Engine rates opened mid-cell).
	Cascade Scenario = "cascade"
)

// Scenarios returns every scenario in canonical order.
func Scenarios() []Scenario {
	return []Scenario{StaleReplay, Overreach, ROWrite, InvFlood, Cascade}
}

// Parse parses a comma-separated scenario list; "all" selects every scenario.
func Parse(s string) ([]Scenario, error) {
	return ParseList(s, "chaos scenario", Scenarios())
}

// ParseList parses a comma-separated list of scenarios drawn from all,
// naming them what in errors; "all" selects every one of them in order.
func ParseList[S ~string](s, what string, all []S) ([]S, error) {
	if strings.TrimSpace(s) == "all" {
		return all, nil
	}
	var out []S
	for _, part := range strings.Split(s, ",") {
		sc := S(strings.TrimSpace(part))
		if sc == "" {
			continue
		}
		if !slices.Contains(all, sc) {
			return nil, fmt.Errorf("unknown %s %q", what, sc)
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list", what)
	}
	return out, nil
}

// Stats counts one Hostile's attack outcomes. Attempts = Contained + Landed:
// an attempt the translation hardware rejects is contained; one it accepts
// lands in memory (the oracle then decides whether landing was a violation —
// a landed ro-write probe on a bidirectional mapping is harmless).
type Stats struct {
	Attempts  uint64
	Contained uint64
	Landed    uint64
}

// Hostile is a compromised/buggy device issuing attacks as the given BDF.
// Target selection reads the audit oracle's deterministic views; the oracle
// must therefore be mirroring the drivers that map this device's buffers.
type Hostile struct {
	eng *dma.Engine
	orc *audit.Oracle
	bdf pci.BDF

	Stats Stats
	buf   []byte
}

// NewHostile builds a hostile device model over the system's DMA engine and
// audit oracle.
func NewHostile(eng *dma.Engine, orc *audit.Oracle, bdf pci.BDF) *Hostile {
	return &Hostile{eng: eng, orc: orc, bdf: bdf}
}

func (h *Hostile) scratch(n int) []byte {
	if cap(h.buf) < n {
		h.buf = make([]byte, n)
		for i := range h.buf {
			h.buf[i] = 0xA5 // recognizable hostile payload
		}
	}
	return h.buf[:n]
}

func (h *Hostile) note(err error) {
	h.Stats.Attempts++
	if err != nil {
		h.Stats.Contained++
	} else {
		h.Stats.Landed++
	}
}

// probeSize bounds each hostile access; small enough never to add a page
// crossing of its own.
const probeSize = 64

// ReplayRetired re-issues DMAs to up to n of the most recently unmapped
// buffers, in each one's original direction. Under strict invalidation the
// translation is gone and the access faults; in the deferred modes a stale
// IOTLB entry can still serve it — the vulnerability window the audit
// oracle quantifies.
func (h *Hostile) ReplayRetired(n int) {
	for _, r := range h.orc.RecentRetired(h.bdf, n) {
		size := uint32(probeSize)
		if r.Size < size {
			size = r.Size
		}
		if r.Dir.Allows(pci.DirFromDevice) {
			h.note(h.eng.Write(h.bdf, r.IOVA, h.scratch(int(size))))
		} else {
			h.note(h.eng.Read(h.bdf, r.IOVA, h.scratch(int(size))))
		}
	}
}

// OverreachLive runs across the end of up to n live buffers: each access
// starts inside the buffer's last bytes and runs past its extent, in a
// direction the mapping permits (so any violation is purely about bounds).
// Page-granular protection translates the whole access whenever the next
// bytes share the buffer's page (the §4 sub-page gap); byte-granular rPTEs
// fault it at the boundary.
func (h *Hostile) OverreachLive(n int) {
	for _, m := range h.orc.LiveFirst(h.bdf, n, nil) {
		half := uint64(probeSize / 2)
		if uint64(m.Size) < half {
			continue
		}
		start := m.IOVA + uint64(m.Size) - half
		if m.Dir.Allows(pci.DirFromDevice) {
			h.note(h.eng.Write(h.bdf, start, h.scratch(probeSize)))
		} else {
			h.note(h.eng.Read(h.bdf, start, h.scratch(probeSize)))
		}
	}
}

// WriteReadOnly writes through up to n live mappings that do not permit
// device writes (Tx buffers). Both IOMMU designs store the direction in the
// translation, so these should be contained in every protected mode.
func (h *Hostile) WriteReadOnly(n int) {
	readOnly := func(m audit.Mapping) bool { return !m.Dir.Allows(pci.DirFromDevice) }
	for _, m := range h.orc.LiveFirst(h.bdf, n, readOnly) {
		size := uint32(probeSize)
		if m.Size < size {
			size = m.Size
		}
		h.note(h.eng.Write(h.bdf, m.IOVA, h.scratch(int(size))))
	}
}
