package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"riommu/internal/baseline"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

// TestHybridMachine realizes §4's deployment story: one machine, two
// IOMMUs. The ring-based NIC sits behind an rIOMMU; a SATA disk sits behind
// the conventional VT-d IOMMU in strict mode. A dma.Router dispatches each
// device's DMAs to its own unit, and the two coexist without interference.
func TestHybridMachine(t *testing.T) {
	mm := mustMem(t, 1<<14*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()

	nicBDF := pci.NewBDF(0, 3, 0)
	diskBDF := pci.NewBDF(0, 5, 0)

	// Unit 1: rIOMMU for the NIC.
	rhw := core.New(clk, &model, mm)
	// Unit 2: baseline VT-d for the disk.
	hier, err := pagetable.NewHierarchy(mm)
	if err != nil {
		t.Fatal(err)
	}
	bhw := iommu.New(clk, &model, hier, 0)

	router := dma.NewRouter()
	router.Route(nicBDF, rhw)
	router.Route(diskBDF, bhw)
	eng := dma.NewEngine(mm, router)

	// NIC behind the rIOMMU.
	profile := device.ProfileBRCM
	profile.RxEntries = 64
	profile.TxEntries = 64
	rprot, err := core.NewDriver(clk, &model, mm, rhw, nicBDF, driver.RIOMMURingSizes(profile), true)
	if err != nil {
		t.Fatal(err)
	}
	nicDrv, nic, err := driver.NewNICDriver(mm, rprot, eng, profile, nicBDF)
	if err != nil {
		t.Fatal(err)
	}
	nic.CaptureTx = true

	// Disk behind the strict baseline.
	bprot, err := baseline.New(baseline.Strict, clk, &model, mm, bhw, diskBDF, false)
	if err != nil {
		t.Fatal(err)
	}
	diskDrv := driver.NewSATADriver(mm, bprot, eng, diskBDF, 4096, 1024)

	// Both devices move data concurrently through their own units.
	payload := bytes.Repeat([]byte{0x77}, 700)
	if err := nicDrv.Send(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := diskDrv.SubmitWrite(5, bytes.Repeat([]byte{0x55}, 4096)); err != nil {
		t.Fatal(err)
	}
	if n, err := nicDrv.PumpTx(1); err != nil || n != 1 {
		t.Fatalf("nic pump: %d, %v", n, err)
	}
	if !bytes.Equal(nic.LastTx, payload) {
		t.Error("NIC payload corrupted in hybrid setup")
	}
	if _, err := diskDrv.CompleteAll(rand.New(rand.NewSource(42))); err != nil {
		t.Fatalf("disk completion: %v", err)
	}
	if _, err := nicDrv.ReapTx(); err != nil {
		t.Fatal(err)
	}

	// Cross-unit confinement: the disk cannot use the NIC's rIOVAs even
	// though both devices live on the same machine — the router sends its
	// DMAs to the baseline unit, which never mapped them.
	rxDesc := nicDrv.RxRing().ReadSlot(0)
	if err := eng.Write(diskBDF, rxDesc.Addr, []byte{0xEE}); err == nil {
		t.Error("disk DMA reached the NIC's rIOMMU mapping")
	}
	// An unrouted device has no path at all.
	if err := eng.Write(pci.NewBDF(9, 9, 9), rxDesc.Addr, []byte{0xEE}); err == nil {
		t.Error("unrouted device's DMA succeeded")
	}

	// Both protection regimes keep their own cost profiles on one clock:
	// the strict unmap charged its 2,127-cycle invalidation, the rIOMMU
	// burst charged one invalidation for the NIC side.
	if clk.Total(cycles.UnmapIOTLBInv) < model.IOTLBInvEntry {
		t.Error("strict-side invalidation cycles missing")
	}
	if err := nicDrv.Teardown(); err != nil {
		t.Fatal(err)
	}
}
