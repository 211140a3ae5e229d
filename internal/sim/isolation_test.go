package sim

import (
	"bytes"
	"testing"

	"riommu/internal/device"
	"riommu/internal/pci"
)

// TestInterDeviceIsolation: two devices share one (r)IOMMU, but each is
// confined to its own translations — device B replaying device A's IOVA
// must fault. This is the per-device root/context separation of Figure 2
// and the per-bdf rDEVICE lookup of Figure 9.
func TestInterDeviceIsolation(t *testing.T) {
	devA := pci.NewBDF(0, 3, 0)
	devB := pci.NewBDF(0, 7, 0)

	// Device B gets a much smaller ring configuration, so most of A's IOVA
	// coordinates do not even exist in B's translation structures — a
	// replay by B must fault rather than alias into B's own mappings.
	smallProfile := device.ProfileBRCM
	smallProfile.RxEntries = 16
	smallProfile.TxEntries = 16

	for _, mode := range []Mode{Strict, StrictPlus, Defer, DeferPlus, RIOMMUMinus, RIOMMU} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 15})
			if err != nil {
				t.Fatal(err)
			}
			drvA, nicA, err := sys.AttachNIC(device.ProfileBRCM, devA)
			if err != nil {
				t.Fatal(err)
			}
			drvB, nicB, err := sys.AttachNIC(smallProfile, devB)
			if err != nil {
				t.Fatal(err)
			}
			nicA.CaptureTx = true
			nicB.CaptureTx = true

			// Legitimate traffic flows on both devices simultaneously.
			if err := drvA.Send([]byte("from-A")); err != nil {
				t.Fatal(err)
			}
			if err := drvB.Send([]byte("from-B")); err != nil {
				t.Fatal(err)
			}
			if _, err := drvA.PumpTx(1); err != nil {
				t.Fatal(err)
			}
			if _, err := drvB.PumpTx(1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(nicA.LastTx, []byte("from-A")) || !bytes.Equal(nicB.LastTx, []byte("from-B")) {
				t.Fatal("cross-device payload mixup")
			}

			// Attack: device B replays one of device A's live Rx IOVAs —
			// a high slot that has no counterpart in B's small rings, so
			// any success would mean B reached A's translations.
			descA := drvA.RxRing().ReadSlot(drvA.RxRing().Size() - 2)
			if err := sys.Eng.Write(devB, descA.Addr, []byte{0xEE}); err == nil {
				t.Error("device B wrote through device A's IOVA")
			}
			// Device A itself still can.
			if err := sys.Eng.Write(devA, descA.Addr, []byte{0x01}); err != nil {
				t.Errorf("device A's own IOVA rejected: %v", err)
			}
			// And when coordinates do coincide (slot 0 exists on both),
			// B's translation must resolve to B's own buffer, never A's.
			dA0 := drvA.RxRing().ReadSlot(0)
			paA, errA := sys.Eng.Translator().Translate(devA, dA0.Addr, 8, pci.DirFromDevice)
			paB, errB := sys.Eng.Translator().Translate(devB, dA0.Addr, 8, pci.DirFromDevice)
			if errA != nil {
				t.Fatalf("device A slot-0 translation: %v", errA)
			}
			if errB == nil && paA == paB {
				t.Error("shared coordinate resolved to the same physical buffer for both devices")
			}

			if _, err := drvA.ReapTx(); err != nil {
				t.Fatal(err)
			}
			if _, err := drvB.ReapTx(); err != nil {
				t.Fatal(err)
			}
			if err := drvA.Teardown(); err != nil {
				t.Fatal(err)
			}
			if err := drvB.Teardown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTwoDevicesIndependentRings (rIOMMU): each device has its own rDEVICE
// with its own flat tables and rIOTLB entries; identical (rid, rentry)
// coordinates on different devices resolve to different buffers.
func TestTwoDevicesIndependentRings(t *testing.T) {
	sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	devA := pci.NewBDF(0, 3, 0)
	devB := pci.NewBDF(0, 7, 0)
	drvA, _, err := sys.AttachNIC(device.ProfileBRCM, devA)
	if err != nil {
		t.Fatal(err)
	}
	drvB, _, err := sys.AttachNIC(device.ProfileBRCM, devB)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 of each device's Rx ring: same packed rIOVA value, different
	// physical buffers.
	dA := drvA.RxRing().ReadSlot(0)
	dB := drvB.RxRing().ReadSlot(0)
	if dA.Addr != dB.Addr {
		t.Fatalf("expected identical rIOVA coordinates, got %#x vs %#x", dA.Addr, dB.Addr)
	}
	paA, err := sys.RHW.Translate(devA, dA.Addr, 8, pci.DirFromDevice)
	if err != nil {
		t.Fatal(err)
	}
	paB, err := sys.RHW.Translate(devB, dB.Addr, 8, pci.DirFromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if paA == paB {
		t.Error("two devices' identical coordinates resolved to the same buffer")
	}
	if err := drvA.Teardown(); err != nil {
		t.Fatal(err)
	}
	if err := drvB.Teardown(); err != nil {
		t.Fatal(err)
	}
}
