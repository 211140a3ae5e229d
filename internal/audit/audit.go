// Package audit implements a shadow translation oracle: an independent
// record of every live DMA mapping in the system, maintained purely from the
// OS drivers' map/unmap calls and consulted on every DMA the engine performs.
//
// The oracle is the isolation ground truth the protection hardware is
// measured against. The simulated IOMMUs (baseline and rIOMMU) decide
// whether a DMA *translates*; the oracle decides whether it *should have* —
// the access must fall inside a mapping that is still live, in a direction
// the mapping permits, within the buffer's byte bounds, and translate to the
// physical range the mapping was created with. Any translated access that
// fails one of those checks is an isolation violation: the defer modes'
// stale-IOTLB window (§3.2), the baseline's page-granularity overreach (§4),
// or a dropped invalidation erratum all surface here as structured events.
//
// The oracle is a pure observer: it never charges a virtual clock, never
// consumes randomness, and never alters an access. Enabling it cannot change
// any simulated metric, so audited campaign cells are byte-identical to
// unaudited ones in every legacy column — the determinism argument in
// DESIGN.md §9 rests on this.
package audit

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/oamap"
	"riommu/internal/pci"
)

// Violation reasons, from most to least specific.
const (
	// ReasonStale: the access hit no live mapping but matches a retired one —
	// the translation that served it was stale (the defer-mode window).
	ReasonStale = "stale-translation"
	// ReasonUnmapped: the access hit no live or recently retired mapping.
	ReasonUnmapped = "unmapped"
	// ReasonBounds: the access starts inside a live mapping but runs past the
	// buffer's byte extent (page-granular protection leaking past a sub-page
	// buffer, §4).
	ReasonBounds = "bounds"
	// ReasonDirection: the access direction is not permitted by the mapping.
	ReasonDirection = "direction"
	// ReasonPAMismatch: the access is inside a live mapping but the hardware
	// translated it to a different physical address than the mapping's (a
	// stale or corrupted translation structure).
	ReasonPAMismatch = "pa-mismatch"
)

// Reasons returns every violation reason in canonical report order.
func Reasons() []string {
	return []string{ReasonStale, ReasonUnmapped, ReasonBounds, ReasonDirection, ReasonPAMismatch}
}

// Mapping is one live DMA mapping as the oracle tracks it. The fields run
// from widest to narrowest, so a record packs into 32 bytes.
type Mapping struct {
	IOVA     uint64 // base IOVA as returned by the driver's Map
	PA       mem.PA
	MapCycle uint64
	Size     uint32
	BDF      pci.BDF
	Dir      pci.Dir
}

func (m *Mapping) contains(iova uint64) bool {
	return iova >= m.IOVA && iova < m.IOVA+uint64(m.Size)
}

// Retired is a mapping that has been unmapped, kept as a tombstone so stale
// accesses can be distinguished from wild ones (and their window measured).
type Retired struct {
	Mapping
	UnmapCycle uint64
}

// Violation is one recorded isolation breach.
type Violation struct {
	Mode   string
	Reason string
	BDF    pci.BDF
	IOVA   uint64
	Size   uint32
	Dir    pci.Dir
	Cycle  uint64 // CPU cycle at which the offending DMA was verified
	// StaleCycles is, for ReasonStale, how long the mapping had been dead
	// when the access landed (the measured width of the vulnerability
	// window).
	StaleCycles uint64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s %s %s iova=%#x size=%d dir=%s cycle=%d",
		v.Mode, v.Reason, v.BDF, v.IOVA, v.Size, v.Dir, v.Cycle)
}

// retiredCap is the least number of a device's newest tombstones the
// oracle keeps (see device.retire). It comfortably covers a full
// deferred-invalidation batch (250) plus the in-flight ring churn, so every
// access inside the defer window classifies as stale rather than unmapped.
const retiredCap = 1024

// maxEvents bounds the recorded Violation events; totals keep counting past
// the cap.
const maxEvents = 64

// Oracle is the shadow tracker. One oracle audits one simulated system; it
// is not safe for concurrent use (each campaign cell owns its own world).
type Oracle struct {
	mode string
	clk  *cycles.Clock

	// passThrough disables judgment (accesses are counted, never flagged):
	// the none/hwpt/swpt modes map nothing, so every DMA is by construction
	// outside the oracle's live set without being a protection failure.
	passThrough bool

	// devs holds one record per device that has mapped, in the order the
	// devices first mapped, so each call looks its device up once. A world
	// has a handful of devices, so the lookup is a scan of this slice.
	// Lookups never add a record.
	devs []device

	// recs is the slab of mapping records, addressed by int32 id, in
	// chunks that never move; a device's index holds ids. ids counts the
	// ids handed out, and free holds those that unmap and duplicate-base
	// retirement released (their tombstones keep a copy), for OnMap to
	// reuse.
	recs []*[slabChunk]Mapping
	ids  int32
	free []int32

	// Aggregate counters. Checked counts verified DMA chunks; Violations
	// counts every breach (Events holds only the first maxEvents).
	Checked    uint64
	Violations uint64
	ByReason   map[string]uint64
	Events     []Violation

	// Mirror-traffic counters (oracle health / test introspection).
	Maps, Unmaps      uint64
	UnmapMisses       uint64 // unmap of an IOVA the oracle never saw mapped
	InvEntries        uint64 // hardware invalidations observed
	InvFlushes        uint64 // global flushes observed
	LiveNow, LivePeak int
}

// slabChunk is the number of mapping records in one chunk of the slab.
const slabChunk = 64

// device is the oracle's record of one device: its live mappings, indexed
// by IOVA page, and its tombstones.
type device struct {
	bdf pci.BDF

	// live files the id of each of the device's live mappings under every
	// IOVA page it spans, so the mapping containing an address, or the one
	// based at it, is a probe of one table away. Live mappings never share
	// a byte, but sub-page buffers from two IOVA allocators can share a
	// page: a hot-attached driver gets a fresh allocator while the detached
	// instance's buffers are still mapped. Such a page holds one entry per
	// mapping, in filing order.
	live oamap.Multimap

	// retired holds the device's tombstones, oldest first (see retire).
	retired []Retired

	// n counts the device's live mappings.
	n int
}

// NewOracle creates an oracle for a system in the named protection mode.
// clk is read (never charged) to stamp events with the offending cycle.
func NewOracle(mode string, clk *cycles.Clock) *Oracle {
	return &Oracle{
		mode:     mode,
		clk:      clk,
		ByReason: make(map[string]uint64),
	}
}

// Mode returns the protection-mode label events carry.
func (o *Oracle) Mode() string { return o.mode }

// SetPassThrough switches the oracle to counting-only mode (used for the
// unprotected none/hwpt/swpt configurations, which never map anything).
func (o *Oracle) SetPassThrough(v bool) { o.passThrough = v }

// lookup returns bdf's record, or nil if the device never mapped. The
// pointer is good until the next call adds a record.
func (o *Oracle) lookup(bdf pci.BDF) *device {
	for i := range o.devs {
		if o.devs[i].bdf == bdf {
			return &o.devs[i]
		}
	}
	return nil
}

// device returns bdf's record, adding one if the device has none.
func (o *Oracle) device(bdf pci.BDF) *device {
	if d := o.lookup(bdf); d != nil {
		return d
	}
	o.devs = append(o.devs, device{bdf: bdf})
	return &o.devs[len(o.devs)-1]
}

// rec returns the record with the given id.
func (o *Oracle) rec(id int32) *Mapping {
	u := uint32(id)
	return &o.recs[u/slabChunk][u%slabChunk]
}

// OnMap mirrors a successful driver map. A duplicate base IOVA retires the
// previous mapping first (defensive: a best-effort device recovery can lose
// an unmap).
func (o *Oracle) OnMap(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	o.Maps++
	d := o.device(bdf)
	if old := o.base(d, iova); old >= 0 {
		o.release(d, old)
	}
	id := o.newID()
	m := o.rec(id)
	*m = Mapping{BDF: bdf, IOVA: iova, PA: pa, Size: size, Dir: dir, MapCycle: o.clk.Now()}
	first, last := pageSpan(m)
	for p := first; p <= last; p++ {
		d.live.Insert(p, id)
	}
	d.n++
	o.LiveNow++
	if o.LiveNow > o.LivePeak {
		o.LivePeak = o.LiveNow
	}
}

// OnUnmap mirrors a successful driver unmap of the mapping based at iova.
func (o *Oracle) OnUnmap(bdf pci.BDF, iova uint64) {
	o.Unmaps++
	d := o.lookup(bdf)
	id := o.base(d, iova)
	if id < 0 {
		o.UnmapMisses++
		return
	}
	o.release(d, id)
}

// newID returns a released record's id, or the next id of the slab,
// adding a chunk when the last one is full.
func (o *Oracle) newID() int32 {
	if n := len(o.free); n > 0 {
		id := o.free[n-1]
		o.free = o.free[:n-1]
		return id
	}
	if o.ids%slabChunk == 0 {
		o.recs = append(o.recs, new([slabChunk]Mapping))
	}
	o.ids++
	return o.ids - 1
}

// release takes the live mapping id out of d's index, files its tombstone
// and keeps the id for OnMap to reuse.
func (o *Oracle) release(d *device, id int32) {
	m := o.rec(id)
	first, last := pageSpan(m)
	for p := first; p <= last; p++ {
		d.live.Delete(p, id) // id is filed under every page it spans
	}
	d.retire(m, o.clk.Now())
	o.free = append(o.free, id)
	d.n--
	o.LiveNow--
}

// LiveOf returns the number of bdf's live mappings; LiveNow sums it over
// every device.
func (o *Oracle) LiveOf(bdf pci.BDF) int {
	if d := o.lookup(bdf); d != nil {
		return d.n
	}
	return 0
}

// retire files m's tombstone, unmapped at cycle now.
func (d *device) retire(m *Mapping, now uint64) {
	r := append(d.retired, Retired{Mapping: *m, UnmapCycle: now})
	// Compact lazily, at twice the cap, so a teardown that retires a whole
	// ring (8K mlx Rx buffers) pays a handful of copies rather than one
	// full-window copy per unmap. The newest retiredCap entries move down
	// in place, so once the slice has grown to 2*retiredCap entries,
	// retiring allocates nothing. Readers only ever need the newest
	// retiredCap entries; the slack between cap and 2*cap just widens the
	// stale-classification window, which errs on the informative side.
	if len(r) >= 2*retiredCap {
		r = r[:copy(r, r[len(r)-retiredCap:])]
	}
	d.retired = r
}

// OnInvalidate mirrors a hardware-level invalidation (an IOTLB entry for the
// baseline, a ring's rIOTLB entry for the rIOMMU). Purely statistical.
func (o *Oracle) OnInvalidate(pci.BDF, uint64) { o.InvEntries++ }

// OnFlush mirrors a global IOTLB flush. Purely statistical.
func (o *Oracle) OnFlush() { o.InvFlushes++ }

// VerifyDMA judges one translated DMA chunk: the engine calls it after the
// protection hardware accepted the access and resolved it to pa, and the
// oracle independently re-derives what should have happened. Chunks never
// cross a 4 KiB IOVA boundary (dma.Engine splits them), and live mappings
// never share bytes, so the mapping containing the chunk's first byte is
// the only one the chunk can fall in.
func (o *Oracle) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	o.Checked++
	if o.passThrough {
		return
	}
	d := o.lookup(bdf)
	o.judge(d, o.find(d, iova), bdf, iova, pa, size, dir)
}

// judge records the verdict on a chunk of device d (nil if it never
// mapped) whose first byte lies in the live mapping m, or in none when m is
// nil.
func (o *Oracle) judge(d *device, m *Mapping, bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	if m != nil {
		switch {
		case !m.Dir.Allows(dir):
			o.violate(Violation{Reason: ReasonDirection, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
		case iova+uint64(size) > m.IOVA+uint64(m.Size):
			o.violate(Violation{Reason: ReasonBounds, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
		case pa != m.PA+mem.PA(iova-m.IOVA):
			o.violate(Violation{Reason: ReasonPAMismatch, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
		}
		return
	}
	// No live mapping contains the start: a stale translation if the oracle
	// recently retired one there, wild otherwise.
	if r := d.findRetired(iova); r != nil {
		o.violate(Violation{
			Reason: ReasonStale, BDF: bdf, IOVA: iova, Size: size, Dir: dir,
			StaleCycles: o.clk.Now() - r.UnmapCycle,
		})
		return
	}
	o.violate(Violation{Reason: ReasonUnmapped, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
}

// findRetired returns the most recently retired mapping containing iova.
func (d *device) findRetired(iova uint64) *Retired {
	if d == nil {
		return nil
	}
	r := d.retired
	for i := len(r) - 1; i >= 0; i-- {
		if iova >= r[i].IOVA && iova < r[i].IOVA+uint64(r[i].Size) {
			return &r[i]
		}
	}
	return nil
}

func (o *Oracle) violate(v Violation) {
	v.Mode = o.mode
	v.Cycle = o.clk.Now()
	o.Violations++
	o.ByReason[v.Reason]++
	if len(o.Events) < maxEvents {
		o.Events = append(o.Events, v)
	}
}

// LiveFirst returns the n live mappings of the device with the lowest base
// IOVAs among those keep accepts (nil accepts every mapping), in ascending
// base order: the deterministic view chaos scenarios pick targets from.
// It makes one pass over the device's index in slot order, which the
// oracle's calls alone decide; and since OnMap retires a duplicate base,
// base IOVAs are unique per device, so any order would pick the same.
func (o *Oracle) LiveFirst(bdf pci.BDF, n int, keep func(Mapping) bool) []Mapping {
	d := o.lookup(bdf)
	if d == nil || d.n == 0 || n <= 0 {
		return nil
	}
	out := make([]Mapping, 0, min(n, d.n))
	for i := 0; i < d.live.Slots(); i++ {
		page, id, ok := d.live.Entry(i)
		if !ok {
			continue
		}
		m := o.rec(id)
		// A mapping sits in the index once per page it spans; count it
		// only at its base page.
		if page != m.IOVA>>mem.PageShift || len(out) == n && m.IOVA >= out[n-1].IOVA {
			continue
		}
		if keep != nil && !keep(*m) {
			continue
		}
		if len(out) < n {
			out = append(out, *m)
		} else {
			out[n-1] = *m
		}
		for j := len(out) - 1; j > 0 && out[j-1].IOVA > out[j].IOVA; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// RecentRetired returns up to n tombstones, newest first.
func (o *Oracle) RecentRetired(bdf pci.BDF, n int) []Retired {
	var r []Retired
	if d := o.lookup(bdf); d != nil {
		r = d.retired
	}
	if n > len(r) {
		n = len(r)
	}
	out := make([]Retired, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r[len(r)-1-i])
	}
	return out
}

// pageSpan returns the first and last IOVA page of a mapping; a zero-size
// mapping is filed under its base page.
func pageSpan(m *Mapping) (first, last uint64) {
	return m.IOVA >> mem.PageShift, (m.IOVA + uint64(max(m.Size, 1)) - 1) >> mem.PageShift
}

// find returns the live mapping of d containing iova, or nil.
func (o *Oracle) find(d *device, iova uint64) *Mapping {
	if d == nil {
		return nil
	}
	p := iova >> mem.PageShift
	for i := d.live.First(p); i >= 0; i = d.live.Next(p, i) {
		if m := o.rec(d.live.Value(i)); m.contains(iova) {
			return m
		}
	}
	return nil
}

// base returns the id of d's live mapping based exactly at iova, or -1.
func (o *Oracle) base(d *device, iova uint64) int32 {
	if d == nil {
		return -1
	}
	p := iova >> mem.PageShift
	for i := d.live.First(p); i >= 0; i = d.live.Next(p, i) {
		if id := d.live.Value(i); o.rec(id).IOVA == iova {
			return id
		}
	}
	return -1
}
