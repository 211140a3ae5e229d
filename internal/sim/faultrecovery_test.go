package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"riommu/internal/baseline"
	"riommu/internal/cycles"
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

// TestNVMeGracefulDegradation is TestGracefulDegradation for the NVMe
// driver: one stale DMA under rIOMMU degrades the controller, and its
// queues and commands then run through the strict baseline unit.
func TestNVMeGracefulDegradation(t *testing.T) {
	sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 14, Inject: true, Faults: faults.Config{Seed: 404}, Audit: true})
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
	sup := sys.Supervise(nvmeBDF, d)
	sup.DegradeAfter = 1

	payload := bytes.Repeat([]byte{0x5c}, 700)
	f.SetRate(faults.DMAStale, 1)
	err = sup.Do(func() error {
		if _, err := d.Write(2, payload); err != nil {
			return err
		}
		_, err := d.Poll(8)
		if err != nil {
			f.SetRate(faults.DMAStale, 0) // the fault clears before the retry
		}
		return err
	})
	if err != nil {
		t.Fatalf("supervised write: %v", err)
	}
	if f.Count(faults.DMAStale) == 0 {
		t.Fatal("no stale-DMA fault recorded")
	}
	if !sup.Degraded() || sup.Stats.Degradations != 1 {
		t.Fatalf("no degradation: %+v", sup.Stats)
	}
	if _, ok := sys.Protections[nvmeBDF].(*baseline.Driver); !ok {
		t.Fatalf("protection after degradation is %T, want *baseline.Driver", sys.Protections[nvmeBDF])
	}

	// A write and its read-back go through the strict unit.
	before := sys.BaseHW.TLB().Stats()
	if _, err := d.Write(9, payload); err != nil {
		t.Fatal(err)
	}
	if cs, err := d.PollData(8); err != nil || len(cs) != 1 || cs[0].Status != device.NVMeStatusOK {
		t.Fatalf("write after degradation: %v %v", cs, err)
	}
	if _, err := d.Read(9, uint32(len(payload))); err != nil {
		t.Fatal(err)
	}
	cs, err := d.PollData(8)
	if err != nil || len(cs) != 1 || !bytes.Equal(cs[0].Data, payload) {
		t.Fatalf("read-back after degradation: %v %v", cs, err)
	}
	if st := sys.BaseHW.TLB().Stats(); st.Hits+st.Misses == before.Hits+before.Misses {
		t.Error("baseline IOMMU saw no translations after degradation")
	}
	if err := sys.CheckLive(nvmeBDF, d.Live()); err != nil {
		t.Error(err)
	}
}

// TestDeviceBreakerEndToEnd runs a device's own circuit breaker on a real
// world: stale DMAs trip it, the quarantine blackholes just that device's
// route while another device keeps translating, and once the backoff
// expires the probe re-admits the device and its traffic flows again.
func TestDeviceBreakerEndToEnd(t *testing.T) {
	sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 15, Inject: true, Faults: faults.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	f := sys.FaultEng
	drv, nic, err := sys.AttachNIC(device.ProfileBRCM, bdf)
	if err != nil {
		t.Fatal(err)
	}
	nic.CaptureTx = true
	otherBDF := pci.NewBDF(0, 9, 0)
	other, otherNIC, err := sys.AttachNIC(device.ProfileBRCM, otherBDF)
	if err != nil {
		t.Fatal(err)
	}
	otherNIC.CaptureTx = true
	sup := driver.NewSupervisor(sys.CPU, bdf, drv)
	sup.Breaker = driver.NewBreaker()
	sup.Breaker.AddIsolator(sys.IsolatorFor(bdf))

	round := func(d *driver.NICDriver, payload []byte) error {
		if err := d.Send(payload); err != nil {
			return err
		}
		if _, err := d.PumpTx(int(d.TxRing().Pending())); err != nil {
			return err
		}
		_, err := d.ReapTx()
		return err
	}
	payload := bytes.Repeat([]byte{0x33}, 256)
	op := func() error { return round(drv, payload) }
	if err := sup.Do(op); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	f.SetRate(faults.DMAStale, 1)
	for i := 0; sup.Breaker.State() != driver.BreakerOpen; i++ {
		if i == 10 {
			t.Fatal("10 rounds of stale DMAs never tripped the breaker")
		}
		if err := sup.Do(op); err == nil {
			t.Fatalf("round %d succeeded under stale DMAs", i)
		}
	}
	f.SetRate(faults.DMAStale, 0)

	// Open: operations fast-fail, and the device's DMAs hit the blackhole
	// even with the fault cleared, while another device translates.
	ran := false
	if err := sup.Do(func() error { ran = true; return nil }); !errors.Is(err, driver.ErrQuarantined) || ran {
		t.Fatalf("op while quarantined: ran=%v err=%v", ran, err)
	}
	rxIOVA := drv.RxRing().ReadSlot(0).Addr
	if err := sys.Eng.Write(bdf, rxIOVA, []byte{1}); err == nil {
		t.Error("quarantined device's DMA was translated")
	}
	otherMsg := []byte("other device")
	if err := round(other, otherMsg); err != nil || !bytes.Equal(otherNIC.LastTx, otherMsg) {
		t.Fatalf("quarantine leaked onto another device: %v", err)
	}

	// The backoff expires; the probe re-admits the device and succeeds.
	sys.CPU.Charge(cycles.Recovery, sup.Breaker.BackoffCycles)
	msg := bytes.Repeat([]byte{0x44}, 300)
	if err := sup.Do(func() error { return round(drv, msg) }); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if !bytes.Equal(nic.LastTx, msg) {
		t.Error("probe's payload did not reach the wire")
	}
	if err := sys.Eng.Write(bdf, rxIOVA, []byte{1}); err != nil {
		t.Errorf("re-admitted device's DMA faulted: %v", err)
	}
	b := sup.Breaker
	if b.State() != driver.BreakerClosed || b.Trips != 1 || b.Readmissions != 1 || b.Quarantines != 1 {
		t.Errorf("state %s trips %d readmissions %d quarantines %d, want closed/1/1/1",
			b.State(), b.Trips, b.Readmissions, b.Quarantines)
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
