// Package traffic is the fleet-scale datacenter traffic engine: a
// connection table under seeded churn (short-lived flows opening and
// closing drive the map/unmap storms that are the paper's worst case for
// every IOMMU design), heavy-tailed request-size mixes, RPC fan-in incast
// bursts, and diurnal load curves — all advanced on the virtual
// cycles.Clock from splitmix64 streams so a run is a pure function of its
// Config and byte-reproducible across hosts, worker counts, and reruns.
//
// Two data paths are selectable per connection:
//
//   - Kernel path: every data packet crosses the socket stack and the NIC
//     driver's per-DMA map/unmap discipline (§2.1), and every flow open
//     maps a per-flow steering buffer that its close unmaps — so flow
//     churn hits the IOVA allocators and invalidation machinery directly.
//   - Bypass path: DPDK-style user-level polling (§5.3 promoted to a
//     stack): a buffer pool is mapped once at engine init and DMA runs
//     against those persistent mappings with only a busy-poll CPU charge
//     per packet; a low-rate rearm process remaps pool buffers so each
//     mode's invalidation cost still appears, just amortized.
//
// The application byte stream (what the flows send and receive) depends
// only on the seed and schedule, never on the path or protection mode, so
// kernel and bypass runs of the same Config produce identical AppDigests
// while their cycle ledgers and mapping histories diverge — exactly the
// property check.TestTrafficEquivalence pins.
package traffic

import (
	"bytes"
	"fmt"

	"riommu/internal/baseline"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/iova"
	"riommu/internal/mem"
	"riommu/internal/netstack"
	"riommu/internal/pci"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
)

// BDF is the PCI identity of the traffic engine's NIC.
var BDF = pci.NewBDF(0, 7, 0)

const (
	// ringSteer is the rIOMMU flat table holding per-flow steering-buffer
	// translations, indexed by connection-table slot (MapAt, the §4
	// out-of-order extension — flows close in arbitrary order).
	ringSteer = 3
	// ringBypass is the rIOMMU flat table holding the persistent bypass
	// pool translations.
	ringBypass = 4

	// steerMaxPages bounds the heavy-tailed per-flow steering buffer.
	steerMaxPages = 4

	// closeBurst batches steering-table rIOTLB invalidations across flow
	// closes the way completion bursts batch them across unmaps (§2.3):
	// the end-of-burst marker goes on every closeBurst-th close. Baseline
	// modes ignore the marker (strict invalidates per page, defer queues).
	closeBurst = 16

	// Engine-level CPU costs (cycles, scaled by the profile's CostScale):
	// driver-level flow setup/teardown around each open/close, and the
	// §5.3-style busy-poll cost a bypass packet pays instead of the stack.
	openCostCycles  = 420
	closeCostCycles = 260
	pollCostCycles  = 190

	// bypassRearmEvery is the bypass pool rearm period: every N-th bypass
	// packet unmaps and remaps one pool buffer, keeping per-mode
	// invalidation costs visible on the bypass path without per-packet
	// map/unmap.
	bypassRearmEvery = 256
)

// Path selects a connection's data path.
type Path uint8

const (
	// PathKernel sends through the socket stack and the NIC driver's
	// map-before-DMA/unmap-after-DMA discipline.
	PathKernel Path = iota
	// PathBypass busy-polls user-level rings over persistent mappings.
	PathBypass
)

// Config fully determines a traffic run; equal Configs produce
// byte-identical Results.
type Config struct {
	Mode    sim.Mode
	Profile device.NICProfile
	Seed    uint64

	// TableSlots is the number of live connections simulated (the
	// connection table is kept full: every close immediately opens a
	// successor flow, the fleet's steady state).
	TableSlots int
	// MeanFlowPackets is the churn knob: the mean number of data packets a
	// flow sends before closing. 1 means every packet closes its flow —
	// the map/unmap storm regime.
	MeanFlowPackets int
	// BypassPermille is the per-mille of flows opened on the bypass path
	// (0 = all kernel, 1000 = all bypass).
	BypassPermille int

	// Schedule shape.
	Ticks       int // measured scheduler ticks
	WarmupTicks int // ticks run before the clocks reset
	MsgsPerTick int // base messages per tick (modulated by Diurnal)
	IncastEvery int // every N ticks, an RPC fan-in burst (0 disables)
	IncastFan   int // responses per incast burst
	Diurnal     bool

	// Audit attaches the shadow translation oracle to every layer.
	Audit bool
}

func (c Config) withDefaults() Config {
	if c.Profile.Name == "" {
		c.Profile = device.ProfileMLX
	}
	if c.TableSlots == 0 {
		c.TableSlots = 64
	}
	if c.MeanFlowPackets == 0 {
		c.MeanFlowPackets = 64
	}
	if c.Ticks == 0 {
		c.Ticks = 32
	}
	if c.MsgsPerTick == 0 {
		c.MsgsPerTick = 8
	}
	if c.IncastEvery > 0 && c.IncastFan == 0 {
		c.IncastFan = 16
	}
	return c
}

// Result is everything a run measures, plus the digests that make two runs
// comparable byte-for-byte.
//
// Both digests are FNV-1a over 64-bit words: each starts at the offset
// basis 14695981039346656037, and each word w of what it covers steps the
// state h to (h xor w) * 1099511628211, the FNV prime. That is standard
// FNV-1a's step with a word where the standard takes a byte.
type Result struct {
	// AppDigest digests the application byte stream: for every payload sent
	// or received, a header word, its connection-table slot | its length<<32,
	// then the payload read as little-endian words, the last one zero-padded.
	// It depends only on seed and schedule — never on mode or path.
	AppDigest uint64
	// MapDigest digests the protection-boundary mapping history: per event,
	// three words, the op byte ('M' or 'U') | ring<<8, the IOVA, and the
	// size | extra<<32, where extra is the direction (map) or the
	// end-of-burst marker (unmap). MapEvents counts the events.
	MapDigest uint64
	MapEvents uint64

	DataPackets   uint64 // measured data packets (kernel + bypass)
	RxPackets     uint64 // acks and incast responses received
	BypassPackets uint64
	Opens, Closes uint64 // flow churn during the measured window
	Incasts       uint64

	CyclesPerPkt float64
	Gbps         float64
	Cycles       cycles.Snapshot // per-component CPU ledger

	AuditChecked    uint64
	AuditViolations uint64

	// Allocator introspection (baseline modes only): the Linux allocator's
	// worst gap-search walk, and the constant allocator's fresh-carve
	// high-water mark (pages never recycled from a free stack).
	MaxAllocVisits uint64
	CarvedPages    uint64
}

type conn struct {
	path       Path
	remaining  int
	payloadRNG uint64
	steerIOVA  uint64
	steerSize  uint32
}

// Engine is a running traffic world. Most callers use Run; the step-wise
// surface (Tick, Churn, Incast, FlushDeferred) exists for the fuzzer and
// property tests to drive adversarial interleavings.
type Engine struct {
	cfg  Config
	sys  *sim.System
	drv  *driver.NICDriver
	prot driver.Protection // raw protection (audited internally)
	mp   meteredProt       // digest-recording wrapper the driver uses
	slot *core.Driver      // non-nil in rIOMMU modes: slot-indexed MapAt

	conns   []conn
	steerPA []mem.PA // per-slot steering backing frames (steerMaxPages each)
	bp      bypassPool

	// Netstack-derived pacing constants.
	mss     int
	stackCy uint64
	txBurst int
	ackEv   int
	ackReap int
	openCy  uint64
	closeCy uint64
	pollCy  uint64

	rng      uint64 // schedule stream
	tick     int
	cursor   int
	flowSeq  uint64
	txPend   int
	ackDue   int
	rxPend   int
	steerSeq uint64 // closes since start, for closeBurst marking

	scratch  []byte
	readback []byte
	ackFrame []byte

	appDigest uint64
	mapDigest uint64
	mapEvents uint64
	pkts      uint64
	rxPkts    uint64
	bypassPk  uint64
	opens     uint64
	closes    uint64
	incasts   uint64
}

// meteredProt folds every protection-boundary event into the engine's
// mapping-history digest. It charges nothing and consumes no randomness,
// so a metered run's cycle ledger is identical to an unmetered one's.
type meteredProt struct {
	e *Engine
}

func (p meteredProt) Map(ring int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	iova, err := p.e.prot.Map(ring, pa, size, dir)
	if err == nil {
		p.e.noteMap('M', ring, iova, size, uint64(dir))
	}
	return iova, err
}

func (p meteredProt) Unmap(ring int, iova uint64, size uint32, endOfBurst bool) error {
	err := p.e.prot.Unmap(ring, iova, size, endOfBurst)
	if err == nil {
		var eob uint64
		if endOfBurst {
			eob = 1
		}
		p.e.noteMap('U', ring, iova, size, eob)
	}
	return err
}

func (e *Engine) noteMap(op byte, ring int, iova uint64, size uint32, extra uint64) {
	h := fnvWord(e.mapDigest, uint64(op)|uint64(ring)<<8)
	h = fnvWord(h, iova)
	e.mapDigest = fnvWord(h, uint64(size)|extra<<32)
	e.mapEvents++
}

// NewEngine builds the world: system, NIC driver, steering-buffer backing,
// bypass pool, and a full connection table.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.TableSlots < 1 {
		return nil, fmt.Errorf("traffic: TableSlots must be >= 1")
	}
	if cfg.BypassPermille < 0 || cfg.BypassPermille > 1000 {
		return nil, fmt.Errorf("traffic: BypassPermille %d out of [0,1000]", cfg.BypassPermille)
	}
	// The fleet driver posts page-granular target buffers (DPDK-style
	// page-padded mbufs): under churn, a retired buffer's IOVA page is then
	// never partially re-covered by an unrelated buffer, so even the
	// page-granular baselines keep their replay containment. The §4
	// sub-page gap stays exercised where it belongs — the chaos campaign's
	// shared-page pool — not smeared across every churn cell.
	profile := cfg.Profile
	profile.BufferBytes = uint32(mem.PageSize)
	memPages := uint64(1<<15) + uint64(cfg.TableSlots)*steerMaxPages + bypassBufs
	sys, err := sim.New(sim.Spec{
		Mode: cfg.Mode, MemPages: memPages,
		Model: sim.ProfileModel(profile), Audit: cfg.Audit,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, sys: sys, rng: cfg.Seed ^ 0x7261666669636b31, appDigest: fnvOffset, mapDigest: fnvOffset}
	ringSizes := append(driver.RIOMMURingSizes(profile),
		uint32(cfg.TableSlots), uint32(bypassBufs))
	prot, err := sys.ProtectionFor(BDF, ringSizes)
	if err != nil {
		sys.Close()
		return nil, err
	}
	e.prot = prot
	if d, ok := prot.(*core.Driver); ok {
		e.slot = d
	}
	e.mp = meteredProt{e}
	drv, _, err := driver.NewNICDriver(sys.Mem, e.mp, sys.Eng, profile, BDF)
	if err != nil {
		sys.Close()
		return nil, err
	}
	e.drv = drv

	params := netstack.DefaultParams(profile)
	e.mss = params.MSS
	e.stackCy = params.StackCyclesPerPacket
	e.txBurst = params.TxBurst
	e.ackEv = params.AckEvery
	e.ackReap = params.AckReapEvery
	scale := func(c uint64) uint64 {
		return uint64(float64(c) * cfg.Profile.CostScale)
	}
	e.openCy = scale(openCostCycles)
	e.closeCy = scale(closeCostCycles)
	e.pollCy = scale(pollCostCycles)

	e.scratch = make([]byte, 64*1024)
	e.readback = make([]byte, bypassBufBytes)
	e.ackFrame = bytes.Repeat([]byte{0xac}, params.AckBytes)

	e.steerPA = make([]mem.PA, cfg.TableSlots)
	for i := range e.steerPA {
		pfn, err := sys.Mem.AllocFrames(steerMaxPages)
		if err != nil {
			sys.Close()
			return nil, err
		}
		e.steerPA[i] = pfn.PA()
	}
	if err := e.initBypass(); err != nil {
		sys.Close()
		return nil, err
	}
	e.conns = make([]conn, cfg.TableSlots)
	for i := range e.conns {
		if err := e.openFlow(i); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return e, nil
}

// System exposes the underlying simulated system (fuzzers attach hostile
// devices to it).
func (e *Engine) System() *sim.System { return e.sys }

func (e *Engine) rand() uint64 { return splitmix64(&e.rng) }

// openFlow starts a fresh flow in slot: draws length, path, and steering
// size (the draws are path-independent so the application byte stream is
// too), charges setup, and maps the steering buffer on the kernel path.
func (e *Engine) openFlow(slot int) error {
	e.opens++
	e.flowSeq++
	c := &e.conns[slot]
	c.payloadRNG = e.cfg.Seed ^ uint64(slot)<<40 ^ e.flowSeq*0x9e3779b97f4a7c15
	c.remaining = e.drawFlowLen()
	pages := e.drawSteerPages()
	c.path = PathKernel
	if int(e.rand()%1000) < e.cfg.BypassPermille {
		c.path = PathBypass
	}
	e.sys.CPU.Charge(cycles.Stack, e.openCy)
	c.steerSize = 0
	if c.path == PathKernel {
		size := uint32(pages) << mem.PageShift
		iova, err := e.mapSteer(slot, size)
		if err != nil {
			return err
		}
		c.steerIOVA, c.steerSize = iova, size
	}
	return nil
}

func (e *Engine) closeFlow(slot int) error {
	e.closes++
	c := &e.conns[slot]
	e.sys.CPU.Charge(cycles.Stack, e.closeCy)
	if c.steerSize > 0 {
		e.steerSeq++
		eob := e.steerSeq%closeBurst == 0
		if err := e.mp.Unmap(ringSteer, c.steerIOVA, c.steerSize, eob); err != nil {
			return err
		}
		c.steerSize = 0
	}
	return nil
}

func (e *Engine) mapSteer(slot int, size uint32) (uint64, error) {
	if e.slot != nil {
		iova, err := e.slot.MapAt(ringSteer, uint32(slot), e.steerPA[slot], size, pci.DirFromDevice)
		if err == nil {
			e.noteMap('M', ringSteer, iova, size, uint64(pci.DirFromDevice))
		}
		return iova, err
	}
	return e.mp.Map(ringSteer, e.steerPA[slot], size, pci.DirFromDevice)
}

// Tick advances the schedule one step: the diurnal-modulated message quota
// round-robins over the table, and every IncastEvery-th tick ends in a
// fan-in burst.
func (e *Engine) Tick() error {
	t := e.tick
	e.tick++
	msgs := e.cfg.MsgsPerTick
	if e.cfg.Diurnal {
		msgs = e.cfg.MsgsPerTick * diurnalLoad(t) / diurnalPeak
		if msgs < 1 {
			msgs = 1
		}
	}
	for m := 0; m < msgs; m++ {
		slot := e.cursor
		e.cursor = (e.cursor + 1) % len(e.conns)
		if err := e.sendMessage(slot); err != nil {
			return err
		}
	}
	if e.cfg.IncastEvery > 0 && (t+1)%e.cfg.IncastEvery == 0 {
		return e.Incast(e.cfg.IncastFan)
	}
	return nil
}

// sendMessage segments one heavy-tailed request onto slot's flow. The
// message is truncated if the flow's budget runs out mid-message — the
// short-lived-flow case — and the close immediately opens a successor.
func (e *Engine) sendMessage(slot int) error {
	size := e.drawMsgBytes()
	for size > 0 {
		n := e.mss
		if size < n {
			n = size
		}
		size -= n
		closed, err := e.sendPacket(slot, n)
		if err != nil {
			return err
		}
		if closed {
			break
		}
	}
	return nil
}

func (e *Engine) sendPacket(slot int, n int) (closed bool, err error) {
	c := &e.conns[slot]
	p := e.scratch[:n]
	e.appDigest = fillDigest(e.appDigest, slot, &c.payloadRNG, p)
	if c.path == PathBypass {
		e.bypassPk++
		err = e.bypassTx(p)
	} else {
		e.sys.CPU.Charge(cycles.Stack, e.stackCy)
		err = e.kernelTx(p)
	}
	e.pkts++
	if err != nil {
		return false, err
	}
	c.remaining--
	if c.remaining <= 0 {
		if err := e.closeFlow(slot); err != nil {
			return true, err
		}
		return true, e.openFlow(slot)
	}
	return false, nil
}

func (e *Engine) kernelTx(p []byte) error {
	if err := e.drv.Send(p); err != nil {
		// Ring full: process the backlog and retry once.
		if derr := e.drainTx(); derr != nil {
			return derr
		}
		if err := e.drv.Send(p); err != nil {
			return err
		}
	}
	e.txPend++
	if e.txPend >= e.txBurst {
		if err := e.drainTx(); err != nil {
			return err
		}
	}
	e.ackDue++
	if e.ackDue >= e.ackEv {
		e.ackDue = 0
		if err := e.drv.Deliver(e.ackFrame); err != nil {
			return err
		}
		e.rxPkts++
		e.rxPend++
		if e.rxPend >= e.ackReap {
			e.rxPend = 0
			if _, err := e.drv.ReapRx(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *Engine) drainTx() error {
	if e.txPend == 0 {
		return nil
	}
	if _, err := e.drv.PumpTx(e.txPend); err != nil {
		return err
	}
	if _, err := e.drv.ReapTx(); err != nil {
		return err
	}
	e.txPend = 0
	return nil
}

// Incast delivers a fan-in burst of RPC responses to random connections —
// the many-servers-answer-at-once pattern that fills the Rx ring and makes
// the driver unmap/remap a whole burst at once.
func (e *Engine) Incast(fan int) error {
	e.incasts++
	for f := 0; f < fan; f++ {
		slot := int(e.rand() % uint64(len(e.conns)))
		n := 256 + int(e.rand()%uint64(e.mss-256))
		p := e.scratch[:n]
		e.appDigest = fillDigest(e.appDigest, slot, &e.rng, p)
		c := &e.conns[slot]
		if c.path == PathBypass {
			e.sys.CPU.Charge(cycles.Stack, e.pollCy)
			if err := e.bypassRx(p); err != nil {
				return err
			}
		} else {
			e.sys.CPU.Charge(cycles.Stack, e.stackCy)
			if err := e.drv.Deliver(p); err != nil {
				return err
			}
			e.rxPend++
		}
		e.rxPkts++
	}
	if e.rxPend > 0 {
		e.rxPend = 0
		if _, err := e.drv.ReapRx(); err != nil {
			return err
		}
	}
	return nil
}

// Churn force-closes the flow in slot (as if the peer reset it) and opens
// a successor — the fuzzer's handle on open/close interleavings.
func (e *Engine) Churn(slot int) error {
	if slot < 0 || slot >= len(e.conns) {
		return fmt.Errorf("traffic: churn slot %d out of range", slot)
	}
	if err := e.closeFlow(slot); err != nil {
		return err
	}
	return e.openFlow(slot)
}

// FlushDeferred forces the deferred-invalidation queue to drain (a no-op
// outside the defer modes), closing any open stale window.
func (e *Engine) FlushDeferred() error {
	if bd, ok := e.prot.(*baseline.Driver); ok {
		return bd.FlushPending()
	}
	return nil
}

// Drain processes all in-flight TX and RX work.
func (e *Engine) Drain() error {
	if err := e.drainTx(); err != nil {
		return err
	}
	if e.rxPend > 0 {
		e.rxPend = 0
		if _, err := e.drv.ReapRx(); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) resetCounters() {
	e.pkts, e.rxPkts, e.bypassPk = 0, 0, 0
	e.opens, e.closes, e.incasts = 0, 0, 0
}

// Finish drains and assembles the Result, whose cycle ledger covers
// exactly the measured window.
func (e *Engine) Finish() (Result, error) {
	if err := e.Drain(); err != nil {
		return Result{}, err
	}
	r := Result{
		AppDigest:     e.appDigest,
		MapDigest:     e.mapDigest,
		MapEvents:     e.mapEvents,
		DataPackets:   e.pkts,
		RxPackets:     e.rxPkts,
		BypassPackets: e.bypassPk,
		Opens:         e.opens,
		Closes:        e.closes,
		Incasts:       e.incasts,
		Cycles:        e.sys.CPU.Snapshot(),
	}
	pkts := e.pkts
	if pkts == 0 {
		pkts = 1
	}
	r.CyclesPerPkt = float64(e.sys.CPU.Now()) / float64(pkts)
	rate := perfmodel.PacketsPerSecond(e.sys.Model, r.CyclesPerPkt, e.cfg.Profile.LineRateGbps)
	r.Gbps = rate * perfmodel.WireBytes * 8 / 1e9
	if orc := e.sys.Auditor; orc != nil {
		r.AuditChecked = orc.Checked
		r.AuditViolations = orc.Violations
	}
	if bd, ok := e.prot.(*baseline.Driver); ok {
		switch a := bd.Allocator().(type) {
		case *iova.LinuxAllocator:
			r.MaxAllocVisits = a.MaxAllocVisits
		case *iova.ConstAllocator:
			r.CarvedPages = a.Carved()
		}
	}
	return r, nil
}

// Close checks the world's live mappings and releases the system. It
// unmaps nothing, because every result is fixed before its world closes:
// the mappings the engine's owners account for (the NIC driver's buffers
// and rings, the live steering buffers and the bypass pool) must equal the
// protection layer's live count and, when audited, the oracle's
// (sim.(*System).CheckLive). A mismatch is an error naming both counts;
// the system is released either way.
func (e *Engine) Close() error {
	want := e.drv.Live() + bypassBufs
	for i := range e.conns {
		if e.conns[i].steerSize > 0 {
			want++
		}
	}
	err := e.sys.CheckLive(BDF, want)
	e.sys.Close()
	return err
}

// Run executes the full schedule: warmup, clock reset, measured ticks,
// drain, Result.
func Run(cfg Config) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := e.RunSchedule()
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// RunSchedule executes the configured schedule on a live engine (warmup,
// clock reset, measured ticks, Finish) without closing it — callers that
// need post-run introspection (the audit oracle, allocator state) use this
// and Close themselves.
func (e *Engine) RunSchedule() (Result, error) {
	for t := 0; t < e.cfg.WarmupTicks; t++ {
		if err := e.Tick(); err != nil {
			return Result{}, err
		}
	}
	if err := e.Drain(); err != nil {
		return Result{}, err
	}
	e.sys.ResetClocks()
	e.resetCounters()
	for t := 0; t < e.cfg.Ticks; t++ {
		if err := e.Tick(); err != nil {
			return Result{}, err
		}
	}
	return e.Finish()
}
