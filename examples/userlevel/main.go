// Userlevel: the §5.3 scenario — kernel-bypass I/O that polls the device
// and sends raw frames, where latency is measured in fractions of a
// microsecond and the IOTLB miss penalty finally becomes visible. Compares
// the baseline IOMMU's radix-walk miss against the rIOMMU's prefetched flat
// table.
package main

import (
	"fmt"
	"log"

	"riommu/internal/driver"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

const (
	poolBuffers = 1024
	sends       = 8192
)

func main() {
	fmt.Println("User-level polling I/O (§5.3): device-side translation cycles per send")
	fmt.Println()

	baseRand, baseHot := run(sim.Strict)
	fmt.Printf("baseline IOMMU, random buffer from %d premapped (IOTLB misses): %7.1f cy\n", poolBuffers, baseRand)
	fmt.Printf("baseline IOMMU, single hot buffer (IOTLB hits):                 %7.1f cy\n", baseHot)
	fmt.Printf("=> IOTLB miss penalty: %.0f cycles = %.2f us  (paper: ~1532 cy, ~0.5 us)\n\n",
		baseRand-baseHot, (baseRand-baseHot)/3100)

	rSeq, rRand := runRIOMMU()
	fmt.Printf("rIOMMU, in-order ring sends (prefetched next rPTE):             %7.1f cy\n", rSeq)
	fmt.Printf("rIOMMU, random out-of-order sends (one flat-table fetch):       %7.1f cy\n", rRand)
	fmt.Println("\nThe rIOMMU turns the occasional half-microsecond radix walk into either")
	fmt.Println("nothing (sequential use) or a single DRAM read (out-of-order use).")
}

// run measures baseline device-side cycles per send for random vs hot picks.
func run(mode sim.Mode) (randCy, hotCy float64) {
	sys, err := sim.New(sim.Spec{Mode: mode, MemPages: 1 << 15})
	if err != nil {
		log.Fatal(err)
	}
	bdf := pci.NewBDF(0, 3, 0)
	prot, err := sys.ProtectionFor(bdf, []uint32{4, poolBuffers * 2, poolBuffers * 2})
	if err != nil {
		log.Fatal(err)
	}
	iovas := premap(sys, prot)

	lcg := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 { lcg ^= lcg << 13; lcg ^= lcg >> 7; lcg ^= lcg << 17; return lcg }
	buf := make([]byte, 64)

	measure := func(pick func(i int) uint64) float64 {
		for i := 0; i < 64; i++ { // warm
			if err := sys.Eng.Read(bdf, pick(i), buf); err != nil {
				log.Fatal(err)
			}
		}
		before := sys.Dev.Now()
		for i := 0; i < sends; i++ {
			if err := sys.Eng.Read(bdf, pick(i), buf); err != nil {
				log.Fatal(err)
			}
		}
		return float64(sys.Dev.Now()-before) / sends
	}
	randCy = measure(func(int) uint64 { return iovas[next()%poolBuffers] })
	hotCy = measure(func(int) uint64 { return iovas[0] })
	return
}

// runRIOMMU measures rIOMMU device-side cycles for sequential vs random use.
func runRIOMMU() (seqCy, randCy float64) {
	sys, err := sim.New(sim.Spec{Mode: sim.RIOMMU, MemPages: 1 << 15})
	if err != nil {
		log.Fatal(err)
	}
	bdf := pci.NewBDF(0, 3, 0)
	prot, err := sys.ProtectionFor(bdf, []uint32{4, poolBuffers * 2, poolBuffers * 2})
	if err != nil {
		log.Fatal(err)
	}
	iovas := premap(sys, prot)

	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { lcg ^= lcg << 13; lcg ^= lcg >> 7; lcg ^= lcg << 17; return lcg }
	buf := make([]byte, 64)
	measure := func(pick func(i int) uint64) float64 {
		before := sys.Dev.Now()
		for i := 0; i < sends; i++ {
			if err := sys.Eng.Read(bdf, pick(i), buf); err != nil {
				log.Fatal(err)
			}
		}
		return float64(sys.Dev.Now()-before) / sends
	}
	seqCy = measure(func(i int) uint64 { return iovas[i%poolBuffers] })
	randCy = measure(func(int) uint64 { return iovas[next()%poolBuffers] })
	return
}

func premap(sys *sim.System, prot driver.Protection) []uint64 {
	iovas := make([]uint64, poolBuffers)
	for i := range iovas {
		f, err := sys.Mem.AllocFrame()
		if err != nil {
			log.Fatal(err)
		}
		iovas[i], err = prot.Map(driver.RingTx, f.PA(), 2048, pci.DirToDevice)
		if err != nil {
			log.Fatal(err)
		}
	}
	return iovas
}
