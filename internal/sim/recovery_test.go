package sim

import (
	"bytes"
	"testing"

	"riommu/internal/device"
	"riommu/internal/ring"
)

// TestIOPFRecovery models §4's fault handling: an errant descriptor makes
// the device fault mid-burst; the OS reinitializes the device (Recover) and
// traffic resumes cleanly.
func TestIOPFRecovery(t *testing.T) {
	for _, mode := range []Mode{Strict, RIOMMU} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := NewSystem(mode, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			drv, nic, err := sys.AttachNIC(device.ProfileBRCM, bdf)
			if err != nil {
				t.Fatal(err)
			}
			nic.CaptureTx = true

			// Queue three packets, then corrupt the second descriptor's
			// address (a buggy driver / flaky device writing garbage).
			payload := bytes.Repeat([]byte{0x11}, 256)
			for i := 0; i < 3; i++ {
				if err := drv.Send(payload); err != nil {
					t.Fatal(err)
				}
			}
			d := drv.TxRing().ReadSlot(1)
			d.Addr = 0xdead0000_0000 // nothing maps here in any mode
			drv.TxRing().WriteSlot(1, d)

			// The device transmits packet 0, then faults on packet 1.
			sent, err := drv.PumpTx(3)
			if err == nil {
				t.Fatal("expected an I/O page fault from the corrupt descriptor")
			}
			if sent != 1 {
				t.Fatalf("sent %d packets before the fault, want 1", sent)
			}
			if nic.Faults == 0 {
				t.Error("device did not record the fault")
			}

			// OS response: reinitialize the device (§4).
			if err := drv.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if !drv.RxRing().Full() {
				t.Error("Rx ring not refilled after recovery")
			}
			if drv.TxRing().Pending() != 0 {
				t.Error("Tx ring not reset")
			}

			// Traffic flows again, end to end.
			fresh := bytes.Repeat([]byte{0x22}, 300)
			if err := drv.Send(fresh); err != nil {
				t.Fatalf("send after recovery: %v", err)
			}
			if n, err := drv.PumpTx(1); err != nil || n != 1 {
				t.Fatalf("pump after recovery: %d, %v", n, err)
			}
			if !bytes.Equal(nic.LastTx, fresh) {
				t.Error("post-recovery payload corrupted")
			}
			if _, err := drv.ReapTx(); err != nil {
				t.Fatal(err)
			}
			if err := drv.Deliver([]byte("rx ok")); err != nil {
				t.Fatal(err)
			}
			frames, err := drv.ReapRxFrames()
			if err != nil || len(frames) != 1 || string(frames[0]) != "rx ok" {
				t.Fatalf("rx after recovery: %q, %v", frames, err)
			}
			if err := drv.Teardown(); err != nil {
				t.Fatalf("teardown after recovery: %v", err)
			}
		})
	}
}

// TestDifferentialModes is the cross-mode oracle: the same traffic scenario
// must produce byte-identical data outcomes in every protection mode — the
// modes differ only in cost and in what *errant* DMAs can do.
func TestDifferentialModes(t *testing.T) {
	type outcome struct {
		tx [][]byte
		rx [][]byte
	}
	run := func(mode Mode) outcome {
		sys, err := NewSystem(mode, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		drv, nic, err := sys.AttachNIC(device.ProfileMLX, bdf)
		if err != nil {
			t.Fatal(err)
		}
		nic.CaptureTx = true
		var out outcome
		// Deterministic mixed traffic: sends of varying sizes interleaved
		// with deliveries, bursts of varying lengths.
		seed := uint64(12345)
		next := func() uint64 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			return seed
		}
		for step := 0; step < 120; step++ {
			switch next() % 3 {
			case 0, 1:
				size := int(next()%1200) + 1
				payload := bytes.Repeat([]byte{byte(step)}, size)
				if err := drv.Send(payload); err != nil {
					t.Fatal(err)
				}
				if _, err := drv.PumpTx(1); err != nil {
					t.Fatal(err)
				}
				out.tx = append(out.tx, append([]byte(nil), nic.LastTx...))
				if next()%4 == 0 {
					if _, err := drv.ReapTx(); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				frame := bytes.Repeat([]byte{byte(step ^ 0x5a)}, int(next()%900)+1)
				if err := drv.Deliver(frame); err != nil {
					t.Fatal(err)
				}
				frames, err := drv.ReapRxFrames()
				if err != nil {
					t.Fatal(err)
				}
				out.rx = append(out.rx, frames...)
			}
		}
		if _, err := drv.ReapTx(); err != nil {
			t.Fatal(err)
		}
		if err := drv.Teardown(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	ref := run(None)
	for _, mode := range []Mode{Strict, StrictPlus, Defer, DeferPlus, RIOMMUMinus, RIOMMU} {
		got := run(mode)
		if len(got.tx) != len(ref.tx) || len(got.rx) != len(ref.rx) {
			t.Fatalf("%s: event counts differ (tx %d/%d rx %d/%d)",
				mode, len(got.tx), len(ref.tx), len(got.rx), len(ref.rx))
		}
		for i := range ref.tx {
			if !bytes.Equal(got.tx[i], ref.tx[i]) {
				t.Errorf("%s: tx frame %d differs from none-mode reference", mode, i)
				break
			}
		}
		for i := range ref.rx {
			if !bytes.Equal(got.rx[i], ref.rx[i]) {
				t.Errorf("%s: rx frame %d differs from none-mode reference", mode, i)
				break
			}
		}
	}
}

// TestRingResetZeroesMemory belongs with ring.Reset but needs a full ring;
// also guards the descriptor-flag lifecycle after reset.
func TestRingResetZeroesMemory(t *testing.T) {
	sys, err := NewSystem(None, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	drv, _, err := sys.AttachNIC(device.ProfileBRCM, bdf)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := drv.TxRing().Reset(); err != nil {
		t.Fatal(err)
	}
	if d := drv.TxRing().ReadSlot(0); d != (ring.Descriptor{}) {
		t.Errorf("slot not zeroed after reset: %+v", d)
	}
}
