package multicore

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/intremap"
	"riommu/internal/netstack"
	"riommu/internal/pci"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
)

// Params configures one K-core scale-out run.
type Params struct {
	Mode    sim.Mode
	Profile device.NICProfile
	// Cores is the number of simulated cores; core i exclusively drives
	// MQNIC queue pair i.
	Cores int
	// PacketsPerCore is the measured packet count each core transmits
	// (default 400); WarmupPerCore packets run first and are discarded
	// (default 120).
	PacketsPerCore int
	WarmupPerCore  int
	// IntRemap models MSI-X completion interrupts: queue i's vectors are
	// remapped (posted-format) to core i, and each delivery's dispatch cost
	// lands on the receiving core's virtual timeline. Off by default, which
	// keeps historical scale-out numbers bit-identical.
	IntRemap bool
}

// CoreResult is one core's measured steady state.
type CoreResult struct {
	Packets         uint64
	Cycles          uint64
	CyclesPerPacket float64
	// GbpsSolo is the core's uncapped solo throughput under the §3.3 model.
	GbpsSolo float64
}

// Result aggregates a scale-out run.
type Result struct {
	PerCore []CoreResult
	// AggGbps is the port throughput: the sum of per-core §3.3 packet rates
	// capped at the profile's line rate.
	AggGbps float64
	// AggPktsPerSec is the same sum in packets/second (uncapped).
	AggPktsPerSec float64
	// MeanCyclesPerPacket averages C over the cores.
	MeanCyclesPerPacket float64
	// Lock is the shared-structure lock's tally (zero for lock-free modes).
	Lock LockStats
	// Int is the interrupt remapper's tally (zero unless Params.IntRemap).
	Int intremap.Stats
}

// ContendedMode reports whether the mode serializes map/unmap on shared OS
// structures (the rbtree/const IOVA allocator and the invalidation queue) —
// i.e. whether the scale-out engine wraps its protection in the lock model.
func ContendedMode(m sim.Mode) bool {
	switch m {
	case sim.Strict, sim.StrictPlus, sim.Defer, sim.DeferPlus:
		return true
	default:
		return false
	}
}

// queueProfile derives the per-queue ring provisioning: the port's rings are
// divided across the queue pairs (floor 64 entries), mirroring how mlx5-era
// drivers size per-channel rings.
func queueProfile(p device.NICProfile, cores int) device.NICProfile {
	q := p
	if n := p.RxEntries / uint32(cores); n >= 64 {
		q.RxEntries = n
	} else {
		q.RxEntries = 64
	}
	if n := p.TxEntries / uint32(cores); n >= 64 {
		q.TxEntries = n
	} else {
		q.TxEntries = 64
	}
	return q
}

// connParams adapts the netstack cost model to the per-queue ring size: the
// Tx completion burst cannot exceed what the smaller ring can hold in
// flight.
func connParams(qp device.NICProfile) netstack.Params {
	p := netstack.DefaultParams(qp)
	if maxInFlight := int(qp.TxEntries) / qp.BuffersPerPacket / 2; p.TxBurst > maxInFlight {
		p.TxBurst = maxInFlight
	}
	return p
}

var mqBDF = pci.NewBDF(0, 3, 0)

// memPages sizes the simulated physical memory: 1<<15 pages, 128 MiB.
const memPages = 1 << 15

// Run executes one deterministic scale-out measurement: K cores, each with
// its own virtual clock and MQNIC queue pair, scheduled lowest-virtual-time
// first at per-packet granularity. The single physical clock every simulated
// component charges is multiplexed across cores via Snapshot/Restore, so the
// whole run stays single-threaded and bit-reproducible.
func Run(p Params) (Result, error) {
	if p.Cores <= 0 {
		return Result{}, fmt.Errorf("multicore: cores must be positive, got %d", p.Cores)
	}
	if p.PacketsPerCore <= 0 {
		p.PacketsPerCore = 400
	}
	if p.WarmupPerCore <= 0 {
		p.WarmupPerCore = 120
	}

	sys, err := sim.New(sim.Spec{
		Mode: p.Mode, MemPages: memPages,
		Model: sim.ProfileModel(p.Profile), IntRemap: p.IntRemap,
	})
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()

	qp := queueProfile(p.Profile, p.Cores)
	prot, err := sys.ProtectionFor(mqBDF, driver.RIOMMURingSizesQ(qp, p.Cores))
	if err != nil {
		return Result{}, err
	}
	// The lock wraps the baseline modes' shared protection driver only;
	// rIOMMU and none run lock-free.
	lock := NewLock(DefaultLockParams())
	if ContendedMode(p.Mode) {
		prot = Contend(prot, lock, sys.CPU)
	}
	mq, err := driver.NewMQNIC(sys.Mem, prot, sys.Eng, qp, mqBDF, p.Cores)
	if err != nil {
		return Result{}, err
	}
	if p.IntRemap {
		// Posted delivery into per-core timelines: the reap paths run under
		// the owning core's restored clock, so each dispatch charge lands
		// exactly on the core the IRTE targets.
		if err := sys.WireMQNICInterrupts(mq, mqBDF, true); err != nil {
			return Result{}, err
		}
	}

	np := connParams(qp)
	conns := make([]*netstack.Conn, p.Cores)
	for i := range conns {
		conns[i] = netstack.NewConn(sys.CPU, mq.Queues[i], np)
	}

	// Setup charges (ring maps, Rx fill) accrued on the shared clock; wipe
	// them and give every core a zeroed private clock.
	sys.ResetClocks()
	snaps := make([]cycles.Snapshot, p.Cores)

	// schedule advances cores one packet at a time, always the core whose
	// virtual clock trails the field (ties to the lowest index), until every
	// core has sent quota packets beyond base[i].
	schedule := func(base []uint64, quota int) error {
		for {
			pick, best := -1, ^uint64(0)
			for i := range snaps {
				if conns[i].DataPackets-base[i] >= uint64(quota) {
					continue
				}
				if snaps[i].Now < best {
					pick, best = i, snaps[i].Now
				}
			}
			if pick < 0 {
				return nil
			}
			sys.CPU.Restore(snaps[pick])
			if err := conns[pick].SendPacket(np.MSS); err != nil {
				return fmt.Errorf("multicore: core %d: %w", pick, err)
			}
			snaps[pick] = sys.CPU.Snapshot()
		}
	}

	// Warmup: fill the pipelines (Tx bursts, ack coalescing, allocator
	// caches) exactly as the measured phase will run them.
	zeros := make([]uint64, p.Cores)
	if err := schedule(zeros, p.WarmupPerCore); err != nil {
		return Result{}, err
	}

	// Measured phase starts from virtual time zero on every core.
	for i := range snaps {
		snaps[i] = cycles.Snapshot{}
	}
	sys.ResetClocks()
	lock.ResetStats()
	base := make([]uint64, p.Cores)
	for i, c := range conns {
		base[i] = c.DataPackets
	}
	if err := schedule(base, p.PacketsPerCore); err != nil {
		return Result{}, err
	}
	// Drain outstanding completion bursts so trailing unmap work is billed.
	for i, c := range conns {
		sys.CPU.Restore(snaps[i])
		if err := c.Flush(); err != nil {
			return Result{}, fmt.Errorf("multicore: core %d flush: %w", i, err)
		}
		snaps[i] = sys.CPU.Snapshot()
	}

	res := Result{PerCore: make([]CoreResult, p.Cores), Lock: lock.Stats}
	if sys.IntRemap != nil {
		res.Int = sys.IntRemap.Stats()
	}
	var sumC, aggPkts float64
	for i := range snaps {
		pkts := conns[i].DataPackets - base[i]
		c := float64(snaps[i].Now) / float64(pkts)
		res.PerCore[i] = CoreResult{
			Packets:         pkts,
			Cycles:          snaps[i].Now,
			CyclesPerPacket: c,
			GbpsSolo:        perfmodel.GbpsUncapped(sys.Model, c),
		}
		sumC += c
		aggPkts += sys.Model.CyclesPerSecond() / c
	}
	res.MeanCyclesPerPacket = sumC / float64(p.Cores)
	res.AggPktsPerSec = aggPkts
	if line := perfmodel.LineRatePackets(p.Profile.LineRateGbps); aggPkts > line {
		aggPkts = line
	}
	res.AggGbps = aggPkts * perfmodel.WireBytes * 8 / 1e9
	return res, nil
}
