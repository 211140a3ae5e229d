package workload

import (
	"math/rand"

	"riommu/internal/detrand"

	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

// BonnieOpts configures the Bonnie++-style sequential I/O run over the
// AHCI/SATA model (§4 Applicability): the paper found strict IOMMU
// protection indistinguishable from no IOMMU on SATA drives, HDD or SSD,
// because the drive — not the CPU — is the bottleneck.
type BonnieOpts struct {
	Ops int
}

// bonnieChunkBytes is the size of one sequential I/O.
const bonnieChunkBytes = 8 * 1024

func (o *BonnieOpts) defaults() {
	if o.Ops == 0 {
		o.Ops = 400
	}
}

// SATABDF is the PCI identity of the simulated drive.
var SATABDF = pci.NewBDF(0, 5, 0)

// Bonnie measures sequential block I/O throughput in MB/s. Per-op time is
// the drive's service latency plus the CPU's (un)mapping work; the result
// shows the IOMMU's share is negligible at disk speeds.
func Bonnie(mode sim.Mode, opts BonnieOpts) (Result, error) {
	opts.defaults()
	sys, err := sim.New(sim.Spec{Mode: mode, MemPages: MemPages})
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	prot, err := sys.ProtectionFor(SATABDF, []uint32{4, 256, 256})
	if err != nil {
		return Result{}, err
	}
	disk := device.NewSATA(SATABDF, sys.Eng, 4096, 1<<16)
	chunk := uint32(bonnieChunkBytes)
	frames := int((chunk + mem.PageSize - 1) / mem.PageSize)

	buf, err := sys.Mem.AllocFrames(frames)
	if err != nil {
		return Result{}, err
	}
	rng := newSeqRand()

	op := func(block uint64) error {
		iova, err := prot.Map(driver.RingRx, buf.PA(), chunk, pci.DirBidi)
		if err != nil {
			return err
		}
		if _, err := disk.Issue(device.SATACommand{BufIOVA: iova, Block: block, Length: chunk, Op: device.SATAWrite}); err != nil {
			return err
		}
		if _, err := disk.CompleteAll(rng); err != nil {
			return err
		}
		// A SATA queue of depth one per op: each unmap ends its own burst.
		return prot.Unmap(driver.RingRx, iova, chunk, true)
	}

	// Warmup.
	for i := 0; i < 32; i++ {
		if err := op(uint64(i % 64)); err != nil {
			return Result{}, err
		}
	}
	sys.ResetClocks()
	for i := 0; i < opts.Ops; i++ {
		if err := op(uint64(i % 4096)); err != nil {
			return Result{}, err
		}
	}

	cpuPerOp := float64(sys.CPU.Now()) / float64(opts.Ops)
	opCycles := cpuPerOp + float64(disk.SeqLatencyCycles)
	opsPerSec := sys.Model.CyclesPerSecond() / opCycles
	mbps := opsPerSec * float64(chunk) / 1e6
	return Result{
		Benchmark:     "bonnie",
		NIC:           "sata",
		Mode:          mode,
		Throughput:    mbps,
		Unit:          "MB/s",
		CPU:           cpuPerOp / opCycles,
		CyclesPerUnit: cpuPerOp,
		Breakdown:     sys.CPU.Snapshot(),
		Units:         uint64(opts.Ops),
	}, nil
}

// newSeqRand returns the deterministic source used for AHCI completion
// order; sequential Bonnie issues at depth 1, so the order is trivially
// FIFO regardless of the seed.
func newSeqRand() *rand.Rand { return detrand.New(1) }
