// Faultinjection: the security story of intra-OS protection (§2.1) — errant
// and malicious device DMAs against each protection mode. Shows which modes
// block which attacks, including the deferred-mode stale-IOTLB window and
// the page-sharing hole that only rIOMMU's byte-granular protection closes.
package main

import (
	"fmt"
	"log"

	"riommu/internal/driver"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

var bdf = pci.NewBDF(0, 3, 0)

func main() {
	modes := []sim.Mode{sim.Strict, sim.Defer, sim.RIOMMU, sim.None}
	fmt.Printf("%-34s", "attack")
	for _, m := range modes {
		fmt.Printf("  %-8s", m)
	}
	fmt.Println()

	attacks := []struct {
		name string
		run  func(*fixture) bool // true = DMA landed (protection failed)
	}{
		{"DMA to unmapped address", attackUnmapped},
		{"write via read-only mapping", attackDirection},
		{"use-after-unmap (burst closed)", attackUseAfterUnmap},
		{"overflow past buffer on same page", attackPageSharing},
	}
	for _, a := range attacks {
		fmt.Printf("%-34s", a.name)
		for _, m := range modes {
			fx := newFixture(m)
			landed := a.run(fx)
			verdict := "BLOCKED"
			if landed {
				verdict = "landed"
			}
			fmt.Printf("  %-8s", verdict)
		}
		fmt.Println()
	}
	fmt.Println("\nlanded = the errant DMA reached memory. Deferred mode trades the")
	fmt.Println("use-after-unmap window for speed; only rIOMMU blocks same-page overflow")
	fmt.Println("while staying fast (byte-granular rPTEs, §4).")
}

type fixture struct {
	sys  *sim.System
	prot driver.Protection
	buf  mem.PA
}

func newFixture(m sim.Mode) *fixture {
	sys, err := sim.New(sim.Spec{Mode: m, MemPages: 1 << 13})
	if err != nil {
		log.Fatal(err)
	}
	prot, err := sys.ProtectionFor(bdf, []uint32{4, 64, 64})
	if err != nil {
		log.Fatal(err)
	}
	f, err := sys.Mem.AllocFrame()
	if err != nil {
		log.Fatal(err)
	}
	return &fixture{sys: sys, prot: prot, buf: f.PA()}
}

func attackUnmapped(fx *fixture) bool {
	// No mapping at all; the device guesses an address. In none mode the
	// "address" is physical and always reachable.
	target := uint64(fx.buf)
	if fx.sys.Mode != sim.None {
		target = 0x7f000 // an IOVA nothing mapped
	}
	return fx.sys.Eng.Write(bdf, target, []byte{0xee}) == nil
}

func attackDirection(fx *fixture) bool {
	iova, err := fx.prot.Map(driver.RingTx, fx.buf, 512, pci.DirToDevice)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = fx.prot.Unmap(driver.RingTx, iova, 512, true) }()
	return fx.sys.Eng.Write(bdf, iova, []byte{0xee}) == nil
}

func attackUseAfterUnmap(fx *fixture) bool {
	iova, err := fx.prot.Map(driver.RingRx, fx.buf, 512, pci.DirFromDevice)
	if err != nil {
		log.Fatal(err)
	}
	// Legitimate DMA warms the (r)IOTLB; then the OS unmaps and hands the
	// buffer up. A malicious device replays the old address.
	if err := fx.sys.Eng.Write(bdf, iova, []byte{0x01}); err != nil {
		log.Fatal(err)
	}
	if err := fx.prot.Unmap(driver.RingRx, iova, 512, true); err != nil {
		log.Fatal(err)
	}
	return fx.sys.Eng.Write(bdf, iova, []byte{0xee}) == nil
}

func attackPageSharing(fx *fixture) bool {
	// Two buffers share a page: [0,512) mapped for the device, [2048,2560)
	// belongs to someone else. The device overflows its buffer by writing
	// at offset 2048. Page-granular protection cannot tell the difference.
	iova, err := fx.prot.Map(driver.RingRx, fx.buf, 512, pci.DirFromDevice)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = fx.prot.Unmap(driver.RingRx, iova, 512, true) }()
	return fx.sys.Eng.Write(bdf, iova+2048, []byte{0xee}) == nil
}
