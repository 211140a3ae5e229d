// Package check is the mode-equivalence property layer: every protection
// mode is supposed to change *how* DMA is protected and *what it costs*,
// never what data moves or which mappings the OS asks for. For a seeded
// workload the package captures, per mode:
//
//   - every Rx frame delivered upstream and every Tx payload that reached
//     the wire (byte-exact), and
//   - the mapping history at the driver.Protection boundary — the ordered
//     (op, ring, size, direction, end-of-burst) sequence the protection
//     layer was asked to establish; the same events the audit oracle
//     observes, minus the mode-specific IOVA/PA values.
//
// Two modes are equivalent iff both records match byte for byte. The audit
// oracle additionally runs in every protected mode and must report zero
// violations (no hostile device is present).
package check

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/intremap"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/tenant"
)

// MapEvent is one recorded protection-boundary operation.
type MapEvent struct {
	Op   byte // 'M' (Map) or 'U' (Unmap)
	Ring int
	Size uint32
	Dir  pci.Dir
	EOB  bool // Unmap only: end-of-burst flag
}

// recorder decorates a driver.Protection, appending every successful call
// to the trace. IOVAs and physical addresses are deliberately not recorded:
// they are mode-specific (rIOVAs encode ring/entry, baseline IOVAs come
// from the allocator), while the call sequence itself must not be.
type recorder struct {
	inner  driver.Protection
	events *[]MapEvent
}

func (r recorder) Map(ring int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	iova, err := r.inner.Map(ring, pa, size, dir)
	if err == nil {
		*r.events = append(*r.events, MapEvent{Op: 'M', Ring: ring, Size: size, Dir: dir})
	}
	return iova, err
}

func (r recorder) Unmap(ring int, iova uint64, size uint32, endOfBurst bool) error {
	err := r.inner.Unmap(ring, iova, size, endOfBurst)
	if err == nil {
		// Dir stays zero: the Protection interface does not carry a
		// direction on unmap.
		*r.events = append(*r.events, MapEvent{Op: 'U', Ring: ring, Size: size, EOB: endOfBurst})
	}
	return err
}

// IntEvent is one delivered completion interrupt: which vector fired on
// which core. Delivery order, vectors, and target cores are mode-invariant —
// remapping changes how a message is validated and what it costs, never
// where a legitimate interrupt lands.
type IntEvent struct {
	Vector uint8
	Core   int
}

// Trace is everything a workload run produced that must be mode-invariant.
type Trace struct {
	TxFrames [][]byte
	RxFrames [][]byte
	Events   []MapEvent
	// IntLog is the ordered interrupt-delivery record (remappable format in
	// the protected modes, compatibility format in pass-through).
	IntLog []IntEvent
	// AuditViolations is the oracle's verdict (0 expected; always 0 in the
	// unprotected modes, where the oracle passes through).
	AuditViolations uint64
	// IntViolations is the interrupt oracle's verdict (0 expected).
	IntViolations uint64
	// Cycles is the final CPU clock ledger. It is NOT mode-invariant (cost is
	// exactly what modes change), but reruns of one mode and seed must
	// reproduce it.
	Cycles cycles.Snapshot
}

// Config seeds one equivalence workload.
type Config struct {
	Profile device.NICProfile
	Queues  int
	Rounds  int
	Seed    uint64
	// Tenants, when > 0, runs the workload as tenant 0 of a hypervisor with
	// nested two-stage translation spliced under the DMA engine (plus
	// Tenants-1 idle table-only peers sharing the stage-2 machinery). The
	// trace must be byte-identical to the single-stage run: stage 2 changes
	// where DMA lands in host memory and what it costs, never what data
	// moves or which mappings the guest asks for.
	Tenants int
	// probe, when set, runs once the system is wired and before the driver
	// issues its first DMA, so in-package tests can splice observers
	// between the DMA engine and its translator and auditor.
	probe func(*sim.System)
}

var equivBDF = pci.NewBDF(0, 3, 0)

// splitmix64 is the per-step payload RNG (same construction as
// parallel.CellSeed's mixer, self-contained here).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func payload(rng *uint64, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := splitmix64(rng)
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// RunWorkload drives the seeded multi-queue workload in one mode and
// returns its trace: round-robin transmits (pumped one packet at a time so
// every wire payload is captured), periodic inbound frames with coalesced
// Rx reaps, and a full teardown so trailing unmaps are recorded too.
func RunWorkload(mode sim.Mode, cfg Config) (Trace, error) {
	var tr Trace
	sys, err := sim.New(sim.Spec{
		Mode: mode, MemPages: 1 << 13,
		Model: cycles.DefaultModel().Scaled(cfg.Profile.CostScale), Audit: true, IntRemap: true,
	})
	if err != nil {
		return tr, err
	}
	defer sys.Close()

	if cfg.Tenants > 0 {
		host, err := tenant.NewHost(64 + 8*uint64(cfg.Tenants))
		if err != nil {
			return tr, err
		}
		defer host.Close()
		dom, err := host.AdoptSystem(sys)
		if err != nil {
			return tr, err
		}
		if err := host.Register(dom, equivBDF); err != nil {
			return tr, err
		}
		for i := 1; i < cfg.Tenants; i++ {
			if _, err := host.AdoptSpace(1 << 9); err != nil {
				return tr, err
			}
		}
	}

	prot, err := sys.ProtectionFor(equivBDF, driver.RIOMMURingSizesQ(cfg.Profile, cfg.Queues))
	if err != nil {
		return tr, err
	}
	if cfg.probe != nil {
		cfg.probe(sys)
	}
	mq, err := driver.NewMQNIC(sys.Mem, recorder{inner: prot, events: &tr.Events},
		sys.Eng, cfg.Profile, equivBDF, cfg.Queues)
	if err != nil {
		return tr, err
	}
	for q := 0; q < cfg.Queues; q++ {
		mq.NIC(q).CaptureTx = true
	}
	// Interrupt path: queue q's vectors target core q; the sink records the
	// delivery log the equivalence property compares across modes.
	sys.IntRemap.SetSink(func(d intremap.Delivery) {
		tr.IntLog = append(tr.IntLog, IntEvent{Vector: d.Vector, Core: d.Core})
	})
	if err := sys.WireMQNICInterrupts(mq, equivBDF, false); err != nil {
		return tr, err
	}

	rng := cfg.Seed
	for round := 0; round < cfg.Rounds; round++ {
		q := round % cfg.Queues
		n := 64 + int(splitmix64(&rng)%1200)
		if err := mq.Send(payload(&rng, n)); err != nil {
			return tr, fmt.Errorf("round %d send: %w", round, err)
		}
		if _, err := mq.Queues[q].PumpTx(1); err != nil {
			return tr, fmt.Errorf("round %d pump: %w", round, err)
		}
		tr.TxFrames = append(tr.TxFrames, append([]byte(nil), mq.NIC(q).LastTx...))
		if _, err := mq.Queues[q].ReapTx(); err != nil {
			return tr, fmt.Errorf("round %d reap: %w", round, err)
		}
		if round%3 == 2 {
			frame := payload(&rng, 60+int(splitmix64(&rng)%900))
			if err := mq.Deliver(q, frame); err != nil {
				return tr, fmt.Errorf("round %d deliver: %w", round, err)
			}
			for _, drv := range mq.Queues {
				frames, err := drv.ReapRxFrames()
				if err != nil {
					return tr, fmt.Errorf("round %d rx reap: %w", round, err)
				}
				tr.RxFrames = append(tr.RxFrames, frames...)
			}
		}
	}
	if err := mq.Teardown(); err != nil {
		return tr, fmt.Errorf("teardown: %w", err)
	}
	tr.AuditViolations = sys.Auditor.Violations
	tr.IntViolations = sys.IntAuditor.Violations
	tr.Cycles = sys.CPU.Snapshot()
	return tr, nil
}
