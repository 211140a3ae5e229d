// Package dma implements the DMA engine: the path by which simulated devices
// read and write memory. Every access carries the device's BDF and an I/O
// virtual address and is mediated by a Translator — the baseline IOMMU, the
// rIOMMU, or the identity mapping of a disabled IOMMU — so DMAs genuinely
// exercise the protection hardware, including faults on errant accesses.
package dma

import (
	"encoding/binary"
	"fmt"

	"riommu/internal/faults"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Translator resolves a device access to a physical address. Accesses
// passed to Translate never cross a 4 KiB boundary of the IOVA value (the
// engine splits larger transfers), so implementations may assume single-page
// (baseline) or single-chunk (rIOMMU offset arithmetic) semantics.
type Translator interface {
	Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error)
}

// Req, Resp and BatchTranslator declare a batched translation verb that the
// engine never calls and no translator in this module implements: a
// transfer resolves one chunk at a time (see Engine.transfer). They stay
// declared only because the repository benchmark's tracing wrappers
// (perfbench/trace.go) name them; delete them together with that use.

// Req is one translation request inside a batch.
type Req struct {
	IOVA uint64
	Size uint32
	Dir  pci.Dir
}

// Resp is one resolved batch entry: the physical address on success, or the
// fault that stopped the batch.
type Resp struct {
	PA  mem.PA
	Err error
}

// BatchTranslator is a Translator that resolves N chunks per call, filling
// out[i] for reqs[i] in order and stopping at the first failure.
type BatchTranslator interface {
	Translator
	TranslateBatch(bdf pci.BDF, reqs []Req, out []Resp) int
}

// Router dispatches each device's DMAs to its own translation unit. PCIe
// allows multiple IOMMUs in one system, and §4 proposes rIOMMU as a
// supplement to — not a replacement for — the baseline IOMMU: ring-based
// devices sit behind an rIOMMU while e.g. RDMA NICs (whose persistent
// full-memory mappings rIOMMU cannot serve) stay behind the conventional
// one. A device with no route has no IOMMU path at all and faults, unless a
// default unit is installed (graceful degradation reroutes one device while
// the rest keep their original unit through the default).
type Router struct {
	routes map[pci.BDF]Translator
	def    Translator
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{routes: make(map[pci.BDF]Translator)}
}

// Route binds a device to a translation unit.
func (r *Router) Route(bdf pci.BDF, tr Translator) { r.routes[bdf] = tr }

// SetDefault installs the unit used by devices with no explicit route.
func (r *Router) SetDefault(tr Translator) { r.def = tr }

// RouteOf returns the device's explicit route, if any (quarantine code saves
// it before splicing in a Blackhole so re-admission can restore it).
func (r *Router) RouteOf(bdf pci.BDF) (Translator, bool) {
	tr, ok := r.routes[bdf]
	return tr, ok
}

// Unroute removes a device's explicit route; its DMAs fall back to the
// default unit (or fault if none is installed).
func (r *Router) Unroute(bdf pci.BDF) { delete(r.routes, bdf) }

// Translate dispatches to the device's unit.
func (r *Router) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	tr, ok := r.routes[bdf]
	if !ok {
		if r.def == nil {
			return 0, fmt.Errorf("dma: no IOMMU route for device %s", bdf)
		}
		tr = r.def
	}
	return tr.Translate(bdf, iova, size, dir)
}

// Blackhole is the quarantine translator: every access faults. The
// supervisor's circuit breaker routes a repeatedly-failing device here
// (detach → isolate) until a probe re-admits it.
type Blackhole struct{}

// Translate always rejects the access.
func (Blackhole) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	return 0, fmt.Errorf("dma: device %s quarantined", bdf)
}

// Auditor observes every successfully translated DMA chunk before the
// memory access happens; *audit.Oracle satisfies it. The engine defines the
// interface (rather than importing the audit package) so the dependency
// points from the auditor to the audited.
type Auditor interface {
	VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir)
}

// Engine performs device-initiated memory accesses through a Translator.
type Engine struct {
	mm  *mem.PhysMem
	tr  Translator
	inj *faults.Engine
	aud Auditor

	// Reads/Writes/Bytes count completed DMA operations for statistics.
	Reads, Writes, Bytes uint64
}

// NewEngine returns an engine accessing mm through tr.
func NewEngine(mm *mem.PhysMem, tr Translator) *Engine {
	return &Engine{mm: mm, tr: tr}
}

// Translator returns the engine's current translator.
func (e *Engine) Translator() Translator { return e.tr }

// SetTranslator swaps the translation path (used when comparing modes).
func (e *Engine) SetTranslator(tr Translator) { e.tr = tr }

// SetFaults installs the fault-injection engine. Device models reach it via
// Faults(), so wiring the engine here threads injection through every layer
// that accesses memory on the device's behalf.
func (e *Engine) SetFaults(f *faults.Engine) { e.inj = f }

// Faults returns the fault-injection engine (nil when disabled; all its
// methods are nil-safe).
func (e *Engine) Faults() *faults.Engine { return e.inj }

// SetAudit installs the isolation auditor: every chunk the translator
// accepts is reported before the memory access. Accesses the translator
// rejects never reach the auditor — containment worked.
func (e *Engine) SetAudit(a Auditor) { e.aud = a }

// Read performs a device read of len(buf) bytes from memory at iova (a
// to-device DMA, e.g. fetching a packet to transmit or a descriptor).
func (e *Engine) Read(bdf pci.BDF, iova uint64, buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("dma: zero-length read")
	}
	return e.transfer(bdf, iova, len(buf), buf, pci.DirToDevice)
}

// ReadDiscard is Read of n bytes that the device does not keep (a
// transmitted payload no one inspects): the same translations, audit,
// memory checks, fault draws and statistics, without a buffer or a copy,
// so a corrupted length costs no host memory.
func (e *Engine) ReadDiscard(bdf pci.BDF, iova uint64, n int) error {
	if n == 0 {
		return fmt.Errorf("dma: zero-length read")
	}
	return e.transfer(bdf, iova, n, nil, pci.DirToDevice)
}

// Write performs a device write of data to memory at iova (a from-device
// DMA, e.g. depositing a received packet or a completion status).
func (e *Engine) Write(bdf pci.BDF, iova uint64, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("dma: zero-length write")
	}
	return e.transfer(bdf, iova, len(data), data, pci.DirFromDevice)
}

// transfer moves n bytes between the device and memory at iova: to the
// device (a read of memory, into buf, or nowhere when buf is nil) for
// pci.DirToDevice, from buf otherwise. The transfer is split at 4 KiB IOVA
// boundaries, and each chunk is translated, reported to the auditor and
// copied before the next is translated, as hardware resolves one access at
// a time. A fault returns at its chunk: earlier chunks have landed, later
// ones are never translated, and the statistics count only completed
// transfers.
func (e *Engine) transfer(bdf pci.BDF, iova uint64, n int, buf []byte, dir pci.Dir) error {
	iova, _ = e.inj.StaleDMA(bdf, iova)
	for off := 0; off < n; {
		c := min(int(mem.PageSize-iova&mem.PageMask), n-off)
		pa, err := e.tr.Translate(bdf, iova, uint32(c), dir)
		if err != nil {
			return err
		}
		if e.aud != nil {
			e.aud.VerifyDMA(bdf, iova, pa, uint32(c), dir)
		}
		switch {
		case dir != pci.DirToDevice:
			err = e.mm.Write(pa, buf[off:off+c])
		case buf == nil:
			err = e.mm.ReadDiscard(pa, uint64(c))
		default:
			err = e.mm.ReadInto(pa, buf[off:off+c])
		}
		if err != nil {
			return err
		}
		off += c
		iova += uint64(c)
	}
	if dir == pci.DirToDevice {
		e.Reads++
	} else {
		e.Writes++
	}
	e.Bytes += uint64(n)
	return nil
}

// ReadU64 reads a little-endian quadword at iova (descriptor fields).
func (e *Engine) ReadU64(bdf pci.BDF, iova uint64) (uint64, error) {
	var b [8]byte
	if err := e.transfer(bdf, iova, len(b), b[:], pci.DirToDevice); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian quadword at iova.
func (e *Engine) WriteU64(bdf pci.BDF, iova uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return e.transfer(bdf, iova, len(b), b[:], pci.DirFromDevice)
}
