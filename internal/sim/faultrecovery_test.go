package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"riommu/internal/baseline"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/pci"
)

var (
	nvmeBDF = pci.NewBDF(0, 4, 0)
	sataBDF = pci.NewBDF(0, 5, 0)
)

// TestNVMeIOPFRecovery extends §4's reinitialize-on-fault story to the NVMe
// driver: a fault window redirects the controller's DMAs to a stale IOVA,
// the queue wedges with an I/O page fault, and Recover restores service.
func TestNVMeIOPFRecovery(t *testing.T) {
	for _, mode := range []Mode{Strict, RIOMMU} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 13, Inject: true, Faults: faults.Config{Seed: 101}})
			if err != nil {
				t.Fatal(err)
			}
			f := sys.FaultEng
			prot, err := sys.ProtectionFor(nvmeBDF, []uint32{4, 64, 64})
			if err != nil {
				t.Fatal(err)
			}
			d, err := driver.NewNVMeDriver(sys.Mem, prot, sys.Eng, nvmeBDF, 4096, 128, 8)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0xA5}, 512)
			if _, err := d.Write(3, payload); err != nil {
				t.Fatal(err)
			}
			if cs, err := d.PollData(8); err != nil || len(cs) != 1 || cs[0].Status != device.NVMeStatusOK {
				t.Fatalf("healthy write: %v %v", cs, err)
			}

			// Open the fault window: every device DMA goes to a stale IOVA.
			f.SetRate(faults.DMAStale, 1)
			if _, err := d.Write(5, payload); err != nil {
				t.Fatal(err) // submission is host-side, no DMA yet
			}
			if _, err := d.Poll(8); err == nil {
				t.Fatal("expected an I/O page fault from the stale DMA")
			}
			if f.Count(faults.DMAStale) == 0 {
				t.Fatal("no stale-DMA fault recorded")
			}
			f.SetRate(faults.DMAStale, 0)

			// OS response: reinitialize the controller, resubmit, and verify
			// the namespace round-trips.
			if err := d.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if _, err := d.Write(5, payload); err != nil {
				t.Fatalf("write after recovery: %v", err)
			}
			if cs, err := d.PollData(8); err != nil || len(cs) != 1 || cs[0].Status != device.NVMeStatusOK {
				t.Fatalf("poll after recovery: %v %v", cs, err)
			}
			if _, err := d.Read(5, uint32(len(payload))); err != nil {
				t.Fatal(err)
			}
			cs, err := d.PollData(8)
			if err != nil || len(cs) != 1 {
				t.Fatalf("read-back poll: %v %v", cs, err)
			}
			if !bytes.Equal(cs[0].Data, payload) {
				t.Error("post-recovery read-back corrupted")
			}
			if err := d.Teardown(); err != nil {
				t.Fatalf("teardown after recovery: %v", err)
			}
		})
	}
}

// TestSATAIOPFRecovery is the same story for the AHCI driver.
func TestSATAIOPFRecovery(t *testing.T) {
	for _, mode := range []Mode{Strict, RIOMMU} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 13, Inject: true, Faults: faults.Config{Seed: 202}})
			if err != nil {
				t.Fatal(err)
			}
			f := sys.FaultEng
			prot, err := sys.ProtectionFor(sataBDF, []uint32{4, 64, 64})
			if err != nil {
				t.Fatal(err)
			}
			d := driver.NewSATADriver(sys.Mem, prot, sys.Eng, sataBDF, 4096, 256)
			rng := rand.New(rand.NewSource(7))
			payload := bytes.Repeat([]byte{0x3C}, 512)
			if _, err := d.SubmitWrite(9, payload); err != nil {
				t.Fatal(err)
			}
			if res, err := d.CompleteAllData(rng); err != nil || len(res) != 1 {
				t.Fatalf("healthy write: %v %v", res, err)
			}

			f.SetRate(faults.DMAStale, 1)
			if _, err := d.SubmitWrite(11, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := d.CompleteAll(rng); err == nil {
				t.Fatal("expected an I/O page fault from the stale DMA")
			}
			f.SetRate(faults.DMAStale, 0)

			if err := d.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if _, err := d.SubmitWrite(11, payload); err != nil {
				t.Fatalf("write after recovery: %v", err)
			}
			if res, err := d.CompleteAllData(rng); err != nil || len(res) != 1 {
				t.Fatalf("complete after recovery: %v %v", res, err)
			}
			if _, err := d.SubmitRead(11, uint32(len(payload))); err != nil {
				t.Fatal(err)
			}
			res, err := d.CompleteAllData(rng)
			if err != nil || len(res) != 1 {
				t.Fatalf("read-back: %v %v", res, err)
			}
			if !bytes.Equal(res[0].Data, payload) {
				t.Error("post-recovery read-back corrupted")
			}
			if err := d.Teardown(rng); err != nil {
				t.Fatalf("teardown after recovery: %v", err)
			}
		})
	}
}

// TestWatchdogRecoversHungDevices injects a device hang into each driver
// class and checks the supervisor's watchdog detects and clears it.
func TestWatchdogRecoversHungDevices(t *testing.T) {
	t.Run("nic", func(t *testing.T) {
		sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 14, Inject: true, Faults: faults.Config{Seed: 303}})
		if err != nil {
			t.Fatal(err)
		}
		f := sys.FaultEng
		drv, nic, err := sys.AttachNIC(device.ProfileBRCM, bdf)
		if err != nil {
			t.Fatal(err)
		}
		nic.CaptureTx = true
		sup := sys.Supervise(bdf, drv)
		if _, err := sup.Watch(); err != nil {
			t.Fatal(err)
		}

		f.SetRate(faults.DeviceHang, 1)
		if err := drv.Send([]byte("stuck")); err != nil {
			t.Fatal(err)
		}
		if n, err := drv.PumpTx(1); err != nil || n != 0 {
			t.Fatalf("hung device transmitted: %d %v", n, err)
		}
		f.SetRate(faults.DeviceHang, 0) // the hang itself is sticky

		fired, err := sup.Watch()
		if err != nil || !fired {
			t.Fatalf("watchdog: fired=%v err=%v", fired, err)
		}
		if sup.Stats.WatchdogFires != 1 || sup.Stats.Recoveries != 1 {
			t.Errorf("stats %+v", sup.Stats)
		}
		// The wedge is cleared; traffic flows again.
		msg := []byte("alive again")
		if err := drv.Send(msg); err != nil {
			t.Fatal(err)
		}
		if n, err := drv.PumpTx(1); err != nil || n != 1 {
			t.Fatalf("pump after watchdog recovery: %d %v", n, err)
		}
		if !bytes.Equal(nic.LastTx, msg) {
			t.Error("post-recovery payload corrupted")
		}
	})

	t.Run("nvme", func(t *testing.T) {
		sys, err := New(Spec{Mode: Strict, MemPages: 1 << 13, Inject: true, Faults: faults.Config{Seed: 304}})
		if err != nil {
			t.Fatal(err)
		}
		f := sys.FaultEng
		prot, err := sys.ProtectionFor(nvmeBDF, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := driver.NewNVMeDriver(sys.Mem, prot, sys.Eng, nvmeBDF, 4096, 128, 8)
		if err != nil {
			t.Fatal(err)
		}
		sup := sys.Supervise(nvmeBDF, d)
		if _, err := sup.Watch(); err != nil {
			t.Fatal(err)
		}
		f.SetRate(faults.DeviceHang, 1)
		if _, err := d.Write(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if cs, err := d.PollData(8); err != nil || len(cs) != 0 {
			t.Fatalf("hung controller completed: %v %v", cs, err)
		}
		f.SetRate(faults.DeviceHang, 0)
		if fired, err := sup.Watch(); err != nil || !fired {
			t.Fatalf("watchdog: fired=%v err=%v", fired, err)
		}
		if _, err := d.Write(1, []byte("y")); err != nil {
			t.Fatal(err)
		}
		if cs, err := d.PollData(8); err != nil || len(cs) != 1 || cs[0].Status != device.NVMeStatusOK {
			t.Fatalf("poll after recovery: %v %v", cs, err)
		}
	})

	t.Run("sata", func(t *testing.T) {
		sys, err := New(Spec{Mode: Strict, MemPages: 1 << 13, Inject: true, Faults: faults.Config{Seed: 305}})
		if err != nil {
			t.Fatal(err)
		}
		f := sys.FaultEng
		prot, err := sys.ProtectionFor(sataBDF, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := driver.NewSATADriver(sys.Mem, prot, sys.Eng, sataBDF, 4096, 256)
		rng := rand.New(rand.NewSource(7))
		sup := sys.Supervise(sataBDF, d)
		if _, err := sup.Watch(); err != nil {
			t.Fatal(err)
		}
		f.SetRate(faults.DeviceHang, 1)
		if _, err := d.SubmitWrite(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if res, err := d.CompleteAllData(rng); err != nil || len(res) != 0 {
			t.Fatalf("hung drive completed: %v %v", res, err)
		}
		f.SetRate(faults.DeviceHang, 0)
		if fired, err := sup.Watch(); err != nil || !fired {
			t.Fatalf("watchdog: fired=%v err=%v", fired, err)
		}
		if _, err := d.SubmitWrite(1, []byte("y")); err != nil {
			t.Fatal(err)
		}
		if res, err := d.CompleteAllData(rng); err != nil || len(res) != 1 {
			t.Fatalf("complete after recovery: %v %v", res, err)
		}
	})
}

// TestGracefulDegradation drives a faulting rIOMMU-protected NIC past the
// degradation threshold and checks the device lands, working, on a strict
// baseline IOMMU while the rIOMMU path remains the router default.
func TestGracefulDegradation(t *testing.T) {
	sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 14, Inject: true, Faults: faults.Config{Seed: 404}})
	if err != nil {
		t.Fatal(err)
	}
	f := sys.FaultEng
	drv, nic, err := sys.AttachNIC(device.ProfileBRCM, bdf)
	if err != nil {
		t.Fatal(err)
	}
	nic.CaptureTx = true
	sup := sys.Supervise(bdf, drv)
	sup.DegradeAfter = 1

	if err := drv.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	f.SetRate(faults.DMAStale, 1)
	err = sup.Do(func() error {
		_, err := drv.PumpTx(1)
		if err != nil {
			f.SetRate(faults.DMAStale, 0) // the fault clears before the retry
		}
		return err
	})
	if err != nil {
		t.Fatalf("supervised pump: %v", err)
	}
	if !sup.Degraded() || sup.Stats.Degradations != 1 {
		t.Fatalf("no degradation: %+v", sup.Stats)
	}
	if _, ok := sys.Protections[bdf].(*baseline.Driver); !ok {
		t.Fatalf("protection after degradation is %T, want *baseline.Driver", sys.Protections[bdf])
	}
	if sys.BaseHW == nil {
		t.Fatal("baseline IOMMU not built")
	}

	// End-to-end traffic now flows through the strict baseline unit.
	msg := bytes.Repeat([]byte{0x42}, 333)
	if err := drv.Send(msg); err != nil {
		t.Fatal(err)
	}
	if n, err := drv.PumpTx(1); err != nil || n != 1 {
		t.Fatalf("pump after degradation: %d %v", n, err)
	}
	if !bytes.Equal(nic.LastTx, msg) {
		t.Error("payload corrupted after degradation")
	}
	if _, err := drv.ReapTx(); err != nil {
		t.Fatal(err)
	}
	if err := drv.Deliver([]byte("rx on strict")); err != nil {
		t.Fatal(err)
	}
	frames, err := drv.ReapRxFrames()
	if err != nil || len(frames) != 1 || string(frames[0]) != "rx on strict" {
		t.Fatalf("rx after degradation: %q %v", frames, err)
	}
	// The strict unit really is doing the translating now.
	st := sys.BaseHW.TLB().Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("baseline IOMMU saw no translations after degradation")
	}
}

// TestAllFaultClassesReachTerminalState soaks every safe mode under uniform
// multi-class injection and checks the acceptance property: no panic, no
// wedge — after the fault window closes and one recovery runs, clean traffic
// flows end to end.
func TestAllFaultClassesReachTerminalState(t *testing.T) {
	for _, mode := range []Mode{Strict, StrictPlus, RIOMMUMinus, RIOMMU} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 15, Inject: true, Faults: faults.UniformConfig(1234, 0.02)})
			if err != nil {
				t.Fatal(err)
			}
			f := sys.FaultEng
			drv, nic, err := sys.AttachNIC(device.ProfileBRCM, bdf)
			if err != nil {
				t.Fatal(err)
			}
			sup := sys.Supervise(bdf, drv)

			payload := bytes.Repeat([]byte{0x77}, 400)
			for round := 0; round < 200; round++ {
				// Unrecovered rounds are allowed (counted); panics/hangs not.
				_ = sup.Do(func() error {
					if err := drv.Send(payload); err != nil {
						return err
					}
					if _, err := drv.PumpTx(2); err != nil {
						return err
					}
					if _, err := drv.ReapTx(); err != nil {
						return err
					}
					if err := drv.Deliver(payload); err != nil {
						return err
					}
					_, err := drv.ReapRx()
					return err
				})
				if _, err := sup.Watch(); err != nil {
					t.Fatalf("round %d watchdog: %v", round, err)
				}
			}
			if f.TotalInjected() == 0 {
				t.Fatal("soak injected nothing")
			}

			// Close the window; one reinitialization must fully restore service.
			for _, c := range faults.Classes() {
				f.SetRate(c, 0)
			}
			if err := drv.Recover(); err != nil {
				t.Fatalf("terminal recovery: %v", err)
			}
			// Capture only now: a soak fault can flip a Tx length to
			// gigabytes, which a capturing device would allocate.
			nic.CaptureTx = true
			msg := bytes.Repeat([]byte{0x99}, 256)
			if err := drv.Send(msg); err != nil {
				t.Fatalf("send after terminal recovery: %v", err)
			}
			if n, err := drv.PumpTx(1); err != nil || n != 1 {
				t.Fatalf("pump after terminal recovery: %d %v", n, err)
			}
			if !bytes.Equal(nic.LastTx, msg) {
				t.Error("payload corrupted after terminal recovery")
			}
			if err := drv.Deliver(msg); err != nil {
				t.Fatal(err)
			}
			frames, err := drv.ReapRxFrames()
			if err != nil || len(frames) != 1 || !bytes.Equal(frames[0], msg) {
				t.Fatalf("rx after terminal recovery: %d frames, %v", len(frames), err)
			}
			t.Logf("%s: injected=%d recoveries=%d retries=%d watchdog=%d degradations=%d unrecovered=%d",
				mode, f.TotalInjected(), sup.Stats.Recoveries, sup.Stats.Retries,
				sup.Stats.WatchdogFires, sup.Stats.Degradations, sup.Stats.Unrecovered)
		})
	}
}
