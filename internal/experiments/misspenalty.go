package experiments

import (
	"fmt"

	"riommu/internal/driver"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// MissPenaltyResult reproduces §5.3: in a user-level polling I/O setup
// (no interrupts, no TCP/IP), the cost of an IOTLB miss becomes visible.
// The first experiment sends from buffers drawn randomly out of a large
// pre-mapped pool (IOTLB always misses); the second sends from a single
// buffer (IOTLB always hits). The latency difference is the miss penalty.
type MissPenaltyResult struct {
	// Baseline IOMMU results.
	RandomCycles, SingleCycles float64
	MissPenaltyCycles          float64
	MissPenaltyMicros          float64
	// rIOMMU comparison: the same experiments; in-order and random access.
	RInOrderCycles, RRandomCycles float64
}

// PaperMissPenaltyCycles is the paper's measured IOTLB miss cost.
const PaperMissPenaltyCycles = 1532.0

// RunMissPenalty performs the §5.3 microbenchmark. Its two halves (baseline
// IOMMU and rIOMMU) are independent cells with their own simulation worlds
// and their own xorshift streams, so they parallelize without sharing state.
func RunMissPenalty(cfg Config) (MissPenaltyResult, error) {
	var res MissPenaltyResult
	bdf := pci.NewBDF(0, 3, 0)
	const poolBuffers = 2048
	sends := cfg.Quality.scale(4000, 20000)

	// Each cell owns one xorshift state; the streams must depend only on
	// the cell, never on which worker ran it.
	newRand := func() func() uint64 {
		lcg := uint64(0x9e3779b97f4a7c15)
		return func() uint64 {
			lcg ^= lcg << 13
			lcg ^= lcg >> 7
			lcg ^= lcg << 17
			return lcg
		}
	}

	type half struct {
		a, b            float64 // cell-specific measurements
		penalty, micros float64
	}
	halves, err := runGrid(cfg, []sim.Mode{sim.Strict, sim.RIOMMU}, func(mode sim.Mode) (half, error) {
		var out half
		tables := []uint32{4, 4096, 4096}
		if mode == sim.RIOMMU {
			tables = []uint32{4, poolBuffers * 2, poolBuffers * 2}
		}
		sys, err := sim.New(sim.Spec{Mode: mode, MemPages: workload.MemPages})
		if err != nil {
			return out, err
		}
		defer sys.Close()
		prot, err := sys.ProtectionFor(bdf, tables)
		if err != nil {
			return out, err
		}
		iovas := make([]uint64, poolBuffers)
		for i := range iovas {
			f, err := sys.Mem.AllocFrame()
			if err != nil {
				return out, err
			}
			iovas[i], err = prot.Map(driver.RingTx, f.PA(), 2048, pci.DirToDevice)
			if err != nil {
				return out, err
			}
		}
		buf := make([]byte, 64)
		measure := func(pick func(i int) uint64) float64 {
			// Warm.
			for i := 0; i < 64; i++ {
				if err := sys.Eng.Read(bdf, pick(i), buf); err != nil {
					panic(err)
				}
			}
			before := sys.Dev.Now()
			for i := 0; i < sends; i++ {
				if err := sys.Eng.Read(bdf, pick(i), buf); err != nil {
					panic(err)
				}
			}
			return float64(sys.Dev.Now()-before) / float64(sends)
		}
		next := newRand()
		if mode == sim.Strict {
			// Baseline IOMMU, persistent mappings, polling-mode sends:
			// random buffer from a large pool (always misses) vs a single
			// buffer (always hits).
			out.a = measure(func(int) uint64 { return iovas[next()%poolBuffers] })
			out.b = measure(func(int) uint64 { return iovas[0] })
			out.penalty = out.a - out.b
			out.micros = sys.Model.Micros(uint64(out.penalty))
			return out, nil
		}
		// rIOMMU: in-order ring access is always predicted; random access
		// costs only a flat-table DRAM fetch, far below a radix walk.
		out.a = measure(func(i int) uint64 { return iovas[i%poolBuffers] })
		out.b = measure(func(int) uint64 { return iovas[next()%poolBuffers] })
		return out, nil
	})
	if err != nil {
		return res, err
	}
	base, r := halves.Results[0], halves.Results[1]
	res.RandomCycles = base.a
	res.SingleCycles = base.b
	res.MissPenaltyCycles = base.penalty
	res.MissPenaltyMicros = base.micros
	res.RInOrderCycles = r.a
	res.RRandomCycles = r.b
	return res, nil
}

// Cells emits the two halves of the microbenchmark.
func (r MissPenaltyResult) Cells() []Cell {
	return []Cell{
		C("misspenalty", "baseline", map[string]float64{
			"random_cycles":  r.RandomCycles,
			"single_cycles":  r.SingleCycles,
			"penalty_cycles": r.MissPenaltyCycles,
			"penalty_micros": r.MissPenaltyMicros,
		}),
		C("misspenalty", "riommu", map[string]float64{
			"inorder_cycles": r.RInOrderCycles,
			"random_cycles":  r.RRandomCycles,
		}),
	}
}

// Render prints the comparison.
func (r MissPenaltyResult) Render() string {
	t := stats.NewTable(
		"Sec 5.3. IOTLB miss penalty under user-level polling I/O (device-side cycles per send)",
		"experiment", "cycles/send")
	t.Row("baseline, random buffer from large pool (miss)", r.RandomCycles)
	t.Row("baseline, single buffer (hit)", r.SingleCycles)
	t.Row("=> miss penalty (paper: ~1532 cy / ~0.5us)",
		fmt.Sprintf("%.0f cy = %.2f us", r.MissPenaltyCycles, r.MissPenaltyMicros))
	t.Row("riommu, in-order ring access (prefetched)", r.RInOrderCycles)
	t.Row("riommu, random access (flat-table fetch)", r.RRandomCycles)
	return t.String()
}
