// Package faults implements the simulator's deterministic fault-injection
// engine. The paper's §4 sketches how the OS survives I/O page faults by
// reinitializing the device; validating that story — and the retry, watchdog
// and mode-degradation machinery layered on top of it in package driver —
// requires faults that occur on demand and reproduce exactly. The engine is
// therefore fully deterministic: a seed plus a per-class rate vector defines
// the complete fault schedule, no wall clock or global math/rand state is
// ever consulted, and the same workload against the same configuration
// yields a byte-identical schedule (see ScheduleBytes).
//
// Each simulated layer consults the engine at its natural fault points:
//
//   - simulated memory (package mem, via the FaultHook interface): bit-flip
//     corruption of bulk reads/writes and poisoned cachelines that fail
//     subsequent reads until rewritten;
//   - the DMA engine (package dma): redirection of a device access to a
//     stale/unmapped IOVA, provoking a genuine I/O page fault in whatever
//     translation hardware the mode uses;
//   - devices (package device): bit-flips in fetched descriptors and device
//     hangs that stop queue processing until the driver resets the device;
//   - the baseline IOMMU invalidation queue (package iommu): dropped and
//     delayed invalidations, opening observable stale-IOTLB windows.
//
// Every Engine method is safe to call on a nil receiver (reporting "no
// fault"), so layers hold a plain *Engine and pay a single nil check when
// injection is disabled.
package faults

import (
	"encoding/binary"
	"fmt"

	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Class identifies one injectable fault class.
type Class int

// The fault classes, one per injection point in the layer stack.
const (
	// MemReadCorrupt flips one bit in the data returned by a bulk memory
	// read (a transient bus/DRAM error on the load path).
	MemReadCorrupt Class = iota
	// MemWriteCorrupt flips one bit in the data stored by a bulk memory
	// write (the corruption persists in memory).
	MemWriteCorrupt
	// MemPoison marks the written cacheline poisoned (an uncorrectable ECC
	// error): reads covering it fail until the line is rewritten.
	MemPoison
	// DescBitFlip flips one bit in a descriptor word the device fetched
	// (flaky device logic or a torn descriptor write).
	DescBitFlip
	// DMAStale redirects a device DMA to a stale/unmapped IOVA — the errant
	// access of §4 that the IOMMU turns into an I/O page fault.
	DMAStale
	// DeviceHang wedges the device: it stops consuming its queues until the
	// driver reinitializes it (detected by the driver watchdog).
	DeviceHang
	// InvDrop silently drops a queued IOTLB invalidation descriptor,
	// leaving a stale translation live (a hardware erratum).
	InvDrop
	// InvDelay defers applying a queued invalidation until the next queue
	// drain, opening a one-round stale window even in strict mode.
	InvDelay

	// NumClasses is the number of distinct fault classes.
	NumClasses
)

var classNames = [NumClasses]string{
	MemReadCorrupt:  "mem-read-corrupt",
	MemWriteCorrupt: "mem-write-corrupt",
	MemPoison:       "mem-poison",
	DescBitFlip:     "desc-bit-flip",
	DMAStale:        "dma-stale",
	DeviceHang:      "device-hang",
	InvDrop:         "inv-drop",
	InvDelay:        "inv-delay",
}

// String returns the stable name of the class.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Classes lists every fault class in declaration order.
func Classes() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// StaleIOVA is the address DMAStale redirects accesses to. Its top bits make
// it fault in every mode: under rIOMMU the ring ID (0xffff) names a ring no
// device has, under the baseline the page is never allocated by the IOVA
// allocator, and with the IOMMU disabled it lies beyond simulated memory.
const StaleIOVA = ^uint64(0) &^ uint64(mem.PageMask)

// Config fully determines a fault schedule: the PRNG seed plus one
// injection probability per class, applied per opportunity.
type Config struct {
	Seed  uint64
	Rates [NumClasses]float64
}

// UniformConfig returns a Config injecting every class at the same rate,
// except DeviceHang which runs at a tenth of it (hangs are whole-device
// events; at full rate they would dominate every schedule).
func UniformConfig(seed uint64, rate float64) Config {
	c := Config{Seed: seed}
	for i := range c.Rates {
		c.Rates[i] = rate
	}
	c.Rates[DeviceHang] = rate / 10
	return c
}

// Injection records one injected fault: the opportunity sequence number at
// which it fired, its class, and the device/address context.
type Injection struct {
	Seq   uint64
	Class Class
	BDF   pci.BDF
	Addr  uint64
}

// rng is a splitmix64 generator: tiny, seedable, and sequence-stable across
// Go releases (unlike math/rand, whose global state the engine must avoid).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Sink receives a notification for every injected fault; package trace's
// Trace satisfies it, surfacing injections in recorded DMA traces.
type Sink interface {
	RecordFault(class uint8, bdf pci.BDF, addr uint64)
}

// Engine is the seedable fault injector shared by all simulated layers. It
// is not safe for concurrent use (the simulator is single-threaded), and all
// methods accept a nil receiver.
type Engine struct {
	cfg    Config
	rng    rng
	seq    uint64 // opportunities observed
	counts [NumClasses]uint64
	sched  []Injection
	hung   map[pci.BDF]bool

	// Sink, when non-nil, observes every injection (typically *trace.Trace).
	Sink Sink
}

// New creates an engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, rng: rng{s: cfg.Seed}, hung: make(map[pci.BDF]bool)}
}

// Enabled reports whether injection is active.
func (e *Engine) Enabled() bool { return e != nil }

// Config returns the engine's configuration (zero value for a nil engine).
func (e *Engine) Config() Config {
	if e == nil {
		return Config{}
	}
	return e.cfg
}

// SetRate changes one class's injection rate mid-run (tests use this to open
// and close fault windows deterministically).
func (e *Engine) SetRate(c Class, rate float64) {
	if e != nil && c >= 0 && c < NumClasses {
		e.cfg.Rates[c] = rate
	}
}

// Count returns how many faults of class c have been injected.
func (e *Engine) Count(c Class) uint64 {
	if e == nil || c < 0 || c >= NumClasses {
		return 0
	}
	return e.counts[c]
}

// TotalInjected returns the number of injected faults across all classes.
func (e *Engine) TotalInjected() uint64 {
	if e == nil {
		return 0
	}
	var n uint64
	for _, c := range e.counts {
		n += c
	}
	return n
}

// Opportunities returns how many injection opportunities were observed.
func (e *Engine) Opportunities() uint64 {
	if e == nil {
		return 0
	}
	return e.seq
}

// Schedule returns the injected faults in order.
func (e *Engine) Schedule() []Injection {
	if e == nil {
		return nil
	}
	return e.sched
}

// ScheduleBytes serializes the fault schedule into a canonical byte string;
// two runs are identically faulted iff their ScheduleBytes are equal.
func (e *Engine) ScheduleBytes() []byte {
	if e == nil {
		return nil
	}
	out := make([]byte, 0, len(e.sched)*19)
	var rec [19]byte
	for _, in := range e.sched {
		binary.LittleEndian.PutUint64(rec[0:], in.Seq)
		rec[8] = byte(in.Class)
		binary.LittleEndian.PutUint16(rec[9:], uint16(in.BDF))
		binary.LittleEndian.PutUint64(rec[11:], in.Addr)
		out = append(out, rec[:]...)
	}
	return out
}

// roll is the single decision point: it advances the opportunity counter,
// draws from the PRNG when the class is enabled, and records a hit.
func (e *Engine) roll(c Class, bdf pci.BDF, addr uint64) bool {
	if e == nil {
		return false
	}
	e.seq++
	rate := e.cfg.Rates[c]
	if rate <= 0 || e.rng.float64() >= rate {
		return false
	}
	e.counts[c]++
	e.sched = append(e.sched, Injection{Seq: e.seq, Class: c, BDF: bdf, Addr: addr})
	if e.Sink != nil {
		e.Sink.RecordFault(uint8(c), bdf, addr)
	}
	return true
}

// pick deterministically chooses one bit of an n-byte buffer: the byte's
// index and a mask with that bit set. An empty buffer draws nothing and
// gets a zero mask.
func (e *Engine) pick(n int) (int, byte) {
	if n == 0 {
		return 0, 0
	}
	i := int(e.rng.next() % uint64(n))
	return i, 1 << (e.rng.next() % 8)
}

// ReadFault implements mem.FaultHook: it may choose one bit of the n bytes
// just read to corrupt.
func (e *Engine) ReadFault(pa mem.PA, n int) (int, byte) {
	if !e.roll(MemReadCorrupt, 0, uint64(pa)) {
		return 0, 0
	}
	return e.pick(n)
}

// WriteFault implements mem.FaultHook: it may choose one bit of the n bytes
// just stored to corrupt, and reports whether the written cacheline must be
// poisoned.
func (e *Engine) WriteFault(pa mem.PA, n int) (i int, mask byte, poison bool) {
	if e == nil {
		return 0, 0, false
	}
	if e.roll(MemWriteCorrupt, 0, uint64(pa)) {
		i, mask = e.pick(n)
	}
	return i, mask, e.roll(MemPoison, 0, uint64(pa))
}

// StaleDMA possibly redirects a device DMA to StaleIOVA (package dma calls
// this before translating). It tests for a nil engine itself, not only in
// roll, so a DMA with injection off skips the call.
func (e *Engine) StaleDMA(bdf pci.BDF, iova uint64) (uint64, bool) {
	if e == nil || !e.roll(DMAStale, bdf, iova) {
		return iova, false
	}
	return StaleIOVA, true
}

// FlipDescriptor possibly flips one bit across the two words of a fetched
// descriptor, reporting whether it did.
func (e *Engine) FlipDescriptor(bdf pci.BDF, addr uint64, w0, w1 *uint64) bool {
	if !e.roll(DescBitFlip, bdf, addr) {
		return false
	}
	bit := e.rng.next() % 128
	if bit < 64 {
		*w0 ^= 1 << bit
	} else {
		*w1 ^= 1 << (bit - 64)
	}
	return true
}

// HangCheck is consulted by device models before processing their queues:
// it reports whether the device is (or just became) hung. A hung device
// stays hung until ClearHang (the driver's reset).
func (e *Engine) HangCheck(bdf pci.BDF) bool {
	if e == nil {
		return false
	}
	if e.hung[bdf] {
		return true
	}
	if e.roll(DeviceHang, bdf, 0) {
		e.hung[bdf] = true
		return true
	}
	return false
}

// Hung reports whether the device is currently hung, without consuming an
// injection opportunity.
func (e *Engine) Hung(bdf pci.BDF) bool { return e != nil && e.hung[bdf] }

// ClearHang un-wedges the device; drivers call it from their reset path.
func (e *Engine) ClearHang(bdf pci.BDF) {
	if e != nil {
		delete(e.hung, bdf)
	}
}

// DropInvalidation reports whether a queued invalidation descriptor is
// silently dropped by the hardware.
func (e *Engine) DropInvalidation(bdf pci.BDF, addr uint64) bool {
	return e.roll(InvDrop, bdf, addr)
}

// DelayInvalidation reports whether a queued invalidation is deferred to the
// next queue drain.
func (e *Engine) DelayInvalidation(bdf pci.BDF, addr uint64) bool {
	return e.roll(InvDelay, bdf, addr)
}
