package intremap

import (
	"riommu/internal/cycles"
	"riommu/internal/pci"
)

// Outcome classifies what the remapping hardware did with one interrupt
// message. Every blocked message carries the reason it was refused, so the
// campaign gate can verify that nothing was silently dropped or silently
// let through.
type Outcome int

const (
	// Delivered: the message passed remapping and reached a core.
	Delivered Outcome = iota
	// BlockedBadIndex: the remappable-format handle was outside the table.
	BlockedBadIndex
	// BlockedNotPresent: the IRTE was not present (never allocated, or
	// already invalidated in the IEC as well).
	BlockedNotPresent
	// BlockedSourceMismatch: source-id verification failed — the requester
	// BDF did not match the IRTE's owner (a spoofed interrupt).
	BlockedSourceMismatch
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case BlockedBadIndex:
		return "blocked/bad-index"
	case BlockedNotPresent:
		return "blocked/not-present"
	case BlockedSourceMismatch:
		return "blocked/source-mismatch"
	default:
		return "outcome(?)"
	}
}

// Delivery describes one interrupt that reached a core.
type Delivery struct {
	Source pci.BDF // requester on the wire
	Index  int     // IRTE index, -1 in pass-through (compatibility format)
	Vector uint8
	Core   int
	Posted bool
	// Stale is set when the delivery came from an IEC entry whose backing
	// IRTE has since been freed or rewritten — the deferred-invalidation
	// window in action. The remapper knows this (it owns the table) but
	// real hardware would not; the shadow oracle judges independently.
	Stale bool
}

// Observer mirrors table maintenance and deliveries into an external
// recorder (the interrupt shadow oracle). Implementations must not charge
// clocks or consume randomness.
type Observer interface {
	OnIRTEAlloc(index int, e IRTE)
	OnIRTEFree(index int, e IRTE)
	OnIntDelivered(d Delivery)
	OnIntBlocked(src pci.BDF, index int, o Outcome)
}

// Stats counts remapper activity. All counters are cumulative.
type Stats struct {
	Requested      uint64 // total messages presented to the remapper
	Delivered      uint64
	PostedDeliv    uint64 // subset of Delivered using posted delivery
	StaleDelivered uint64 // subset of Delivered from a stale IEC entry

	BlockedBadIndex       uint64
	BlockedNotPresent     uint64
	BlockedSourceMismatch uint64

	CacheHits   uint64
	CacheMisses uint64

	Allocs, Frees    uint64
	IECInvEntries    uint64 // strict per-entry IEC invalidations
	IECDeferQueued   uint64 // deferred invalidations queued
	IECGlobalFlushes uint64
}

// Blocked returns the total number of refused messages.
func (s Stats) Blocked() uint64 {
	return s.BlockedBadIndex + s.BlockedNotPresent + s.BlockedSourceMismatch
}

// Config selects the remapper's policy.
type Config struct {
	// TableOrder is log2 of the IRT size (default 8 → 256 entries).
	TableOrder int
	// PassThrough disables remapping entirely (none/hwpt/swpt modes):
	// compatibility-format messages deliver unchecked using the hints the
	// source supplies. No table exists.
	PassThrough bool
	// DeferredInv queues IEC invalidations and amortizes them with one
	// global flush per batch (defer/defer+ modes), opening the
	// stale-delivery window. When false, every free invalidates its IEC
	// entry synchronously (strict and rIOMMU modes: the table is small and
	// interrupt frees are rare, so there is nothing to batch).
	DeferredInv bool
	// DeferBatch is the flush batch size (default 32).
	DeferBatch int
}

// Remapper is the interrupt-remapping unit plus the OS-side table
// management. The device/IOMMU-side work (IRTE walks, IEC lookups) charges
// clkDev; the OS/core-side work (table programming, IEC invalidation,
// interrupt dispatch) charges clkCPU — mirroring the CPU/Dev split of the
// DMA side. Both charge component cycles.IntRemap.
type Remapper struct {
	cfg   Config
	cpu   *cycles.Clock
	dev   *cycles.Clock
	model *cycles.Model

	table  *Table
	iec    map[int]IRTE // interrupt entry cache: index -> entry snapshot
	deferQ []int        // IEC invalidations awaiting the batched flush

	obs  Observer
	sink func(Delivery)

	stats Stats
}

// New builds a remapper charging the given clocks.
func New(cfg Config, cpu, dev *cycles.Clock, model *cycles.Model) (*Remapper, error) {
	if cfg.TableOrder == 0 {
		cfg.TableOrder = 8
	}
	if cfg.DeferBatch == 0 {
		cfg.DeferBatch = 32
	}
	r := &Remapper{cfg: cfg, cpu: cpu, dev: dev, model: model}
	if !cfg.PassThrough {
		t, err := NewTable(cfg.TableOrder)
		if err != nil {
			return nil, err
		}
		r.table = t
		r.iec = make(map[int]IRTE)
	}
	return r, nil
}

// SetObserver installs the shadow oracle mirror.
func (r *Remapper) SetObserver(o Observer) { r.obs = o }

// SetSink installs a delivery callback (the equivalence recorder, or the
// multicore engine's per-core accounting). Called only for delivered
// interrupts, after clock charges.
func (r *Remapper) SetSink(fn func(Delivery)) { r.sink = fn }

// Stats returns a copy of the counters.
func (r *Remapper) Stats() Stats { return r.stats }

// PassThrough reports whether the remapper is in compatibility mode.
func (r *Remapper) PassThrough() bool { return r.cfg.PassThrough }

// Table exposes the remap table (nil in pass-through mode).
func (r *Remapper) Table() *Table { return r.table }

// PendingInvalidations returns the number of queued (un-flushed) IEC
// invalidations in deferred mode.
func (r *Remapper) PendingInvalidations() int { return len(r.deferQ) }

// Alloc programs a new IRTE for (bdf, vector) → destCore. The programming
// write is charged CPU-side (an uncached table write plus fence).
func (r *Remapper) Alloc(bdf pci.BDF, vector uint8, destCore int, posted bool) (int, error) {
	if r.cfg.PassThrough {
		return -1, nil
	}
	idx, err := r.table.Alloc(bdf, vector, destCore, posted)
	if err != nil {
		return -1, err
	}
	r.cpu.Charge(cycles.IntRemap, r.model.IRTEWalk)
	r.stats.Allocs++
	if r.obs != nil {
		e, _ := r.table.At(idx)
		r.obs.OnIRTEAlloc(idx, e)
	}
	return idx, nil
}

// Free clears an IRTE and invalidates its IEC entry — synchronously in
// strict mode, queued for the amortized global flush in deferred mode.
func (r *Remapper) Free(index int) error {
	if r.cfg.PassThrough {
		return nil
	}
	e, ok := r.table.At(index)
	if !ok || !e.Present {
		if !ok {
			return ErrBadIndex
		}
		return ErrNotPresent
	}
	if err := r.table.Free(index); err != nil {
		return err
	}
	r.stats.Frees++
	r.invalidate(index)
	if r.obs != nil {
		r.obs.OnIRTEFree(index, e)
	}
	return nil
}

// FreeBDF tears down every IRTE owned by bdf (surprise removal / detach)
// and returns how many were freed.
func (r *Remapper) FreeBDF(bdf pci.BDF) int {
	if r.cfg.PassThrough {
		return 0
	}
	type freed struct {
		i int
		e IRTE
	}
	var fs []freed
	for i := 0; i < r.table.Size(); i++ {
		if e, _ := r.table.At(i); e.Present && e.BDF == bdf {
			fs = append(fs, freed{i, e})
		}
	}
	for _, f := range fs {
		_ = r.table.Free(f.i)
		r.stats.Frees++
		r.invalidate(f.i)
		if r.obs != nil {
			r.obs.OnIRTEFree(f.i, f.e)
		}
	}
	return len(fs)
}

// invalidate removes index from the IEC per policy.
func (r *Remapper) invalidate(index int) {
	if r.cfg.DeferredInv {
		r.deferQ = append(r.deferQ, index)
		r.cpu.Charge(cycles.IntRemap, r.model.IECDeferOp)
		r.stats.IECDeferQueued++
		if len(r.deferQ) >= r.cfg.DeferBatch {
			r.flushIEC(false)
		}
		return
	}
	delete(r.iec, index)
	r.cpu.Charge(cycles.IntRemap, r.model.IECInvEntry)
	r.stats.IECInvEntries++
}

// FlushIEC forces the global IEC flush, draining any queued deferred
// invalidations (device teardown flushes in-flight invalidations).
func (r *Remapper) FlushIEC() {
	if r.cfg.PassThrough {
		return
	}
	r.flushIEC(true)
}

func (r *Remapper) flushIEC(counted bool) {
	if counted {
		r.cpu.Charge(cycles.IntRemap, r.model.IECGlobalFlush)
	} else {
		// Amortized behind the queue ops already counted, like the DMA
		// side's deferred global IOTLB flush.
		r.cpu.ChargeFree(cycles.IntRemap, r.model.IECGlobalFlush)
	}
	r.iec = make(map[int]IRTE)
	r.deferQ = r.deferQ[:0]
	r.stats.IECGlobalFlushes++
}

// Deliver presents one interrupt message to the remapping unit.
//
// src is the requester id on the wire; index the remappable-format handle.
// hintVector/hintCore describe what the raw compatibility-format message
// would carry — used verbatim in pass-through mode (no remapping hardware)
// so that delivery logs are comparable across protection modes.
func (r *Remapper) Deliver(src pci.BDF, index int, hintVector uint8, hintCore int) Outcome {
	r.stats.Requested++
	if r.cfg.PassThrough {
		r.cpu.Charge(cycles.IntRemap, r.model.IntDeliver)
		r.stats.Delivered++
		r.emit(Delivery{Source: src, Index: -1, Vector: hintVector, Core: hintCore})
		return Delivered
	}
	if index < 0 || index >= r.table.Size() {
		// Caught by the geometry check before any table fetch.
		r.dev.Charge(cycles.IntRemap, r.model.IRTECacheHit)
		r.stats.BlockedBadIndex++
		r.blocked(src, index, BlockedBadIndex)
		return BlockedBadIndex
	}
	e, cached := r.iec[index]
	if cached {
		r.dev.Charge(cycles.IntRemap, r.model.IRTECacheHit)
		r.stats.CacheHits++
	} else {
		r.dev.Charge(cycles.IntRemap, r.model.IRTEWalk)
		r.stats.CacheMisses++
		e, _ = r.table.At(index)
		if e.Present {
			r.iec[index] = e
		}
	}
	if !e.Present {
		r.stats.BlockedNotPresent++
		r.blocked(src, index, BlockedNotPresent)
		return BlockedNotPresent
	}
	if e.BDF != src {
		// Source-id verification (SVT): requester must own the IRTE.
		r.stats.BlockedSourceMismatch++
		r.blocked(src, index, BlockedSourceMismatch)
		return BlockedSourceMismatch
	}
	cur, _ := r.table.At(index)
	stale := cached && (!cur.Present || cur != e)
	if e.Posted {
		r.cpu.Charge(cycles.IntRemap, r.model.IntPost)
		r.stats.PostedDeliv++
	} else {
		r.cpu.Charge(cycles.IntRemap, r.model.IntDeliver)
	}
	r.stats.Delivered++
	if stale {
		r.stats.StaleDelivered++
	}
	r.emit(Delivery{Source: src, Index: index, Vector: e.Vector, Core: e.DestCore, Posted: e.Posted, Stale: stale})
	return Delivered
}

func (r *Remapper) emit(d Delivery) {
	if r.sink != nil {
		r.sink(d)
	}
	if r.obs != nil {
		r.obs.OnIntDelivered(d)
	}
}

func (r *Remapper) blocked(src pci.BDF, index int, o Outcome) {
	if r.obs != nil {
		r.obs.OnIntBlocked(src, index, o)
	}
}
