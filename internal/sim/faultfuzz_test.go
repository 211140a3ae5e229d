package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/faults"
)

// fuzzProfile keeps the rings tiny so one fuzz execution (which may run
// dozens of recoveries, each refilling the whole Rx ring) stays well under
// the fuzzer's per-input deadline.
var fuzzProfile = device.NICProfile{
	Name:             "fuzz",
	LineRateGbps:     10,
	BuffersPerPacket: 1,
	RxEntries:        64,
	TxEntries:        64,
	MTU:              1500,
	CostScale:        1.0,
}

// faultRun drives one freshly built system through a fixed supervised NIC
// workload under fault injection and returns the engine's schedule plus
// both virtual-clock readings. Everything observable must be a pure
// function of (mode, cfg, steps). With keep the driver copies each
// received frame out, as a test that inspects them does; without it the
// frames are read and dropped.
func faultRun(t testing.TB, mode Mode, cfg faults.Config, steps int, keep bool) (sched []byte, cpu, dev uint64) {
	sys, err := New(Spec{Mode: mode, MemPages: 1 << 13, Inject: true, Faults: cfg})
	if err != nil {
		t.Fatal(err)
	}
	f := sys.FaultEng
	drv, _, err := sys.AttachNIC(fuzzProfile, bdf)
	if err != nil {
		t.Fatal(err)
	}
	sup := sys.Supervise(bdf, drv)
	payload := bytes.Repeat([]byte{0x5A}, 300)
	for i := 0; i < steps; i++ {
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
			if keep {
				_, err := drv.ReapRxFrames()
				return err
			}
			_, err := drv.ReapRx()
			return err
		})
		if _, err := sup.Watch(); err != nil {
			t.Fatalf("step %d watchdog: %v", i, err)
		}
	}
	return f.ScheduleBytes(), sys.CPU.Now(), sys.Dev.Now()
}

// storageRun is faultRun for the block drivers: each step writes a block
// through NVMe and SATA, reads it back and reaps both, under supervision.
// With keep the reaps copy the read payloads out (PollData,
// CompleteAllData); without it they are read and dropped.
func storageRun(t testing.TB, mode Mode, cfg faults.Config, steps int, keep bool) (sched []byte, cpu, dev uint64) {
	sys, err := New(Spec{Mode: mode, MemPages: 1 << 13, Inject: true, Faults: cfg})
	if err != nil {
		t.Fatal(err)
	}
	f := sys.FaultEng
	nvProt, err := sys.ProtectionFor(nvmeBDF, []uint32{4, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := driver.NewNVMeDriver(sys.Mem, nvProt, sys.Eng, nvmeBDF, 4096, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	saProt, err := sys.ProtectionFor(sataBDF, []uint32{4, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	sa := driver.NewSATADriver(sys.Mem, saProt, sys.Eng, sataBDF, 4096, 256)
	nvSup, saSup := sys.Supervise(nvmeBDF, nv), sys.Supervise(sataBDF, sa)
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	payload := bytes.Repeat([]byte{0xC3}, 700)
	for i := 0; i < steps; i++ {
		lba := uint64(i % 16)
		_ = nvSup.Do(func() error {
			if _, err := nv.Write(lba, payload); err != nil {
				return err
			}
			if _, err := nv.Read(lba, uint32(len(payload))); err != nil {
				return err
			}
			if keep {
				_, err := nv.PollData(8)
				return err
			}
			_, err := nv.Poll(8)
			return err
		})
		_ = saSup.Do(func() error {
			if _, err := sa.SubmitWrite(lba, payload); err != nil {
				return err
			}
			if _, err := sa.SubmitRead(lba, uint32(len(payload))); err != nil {
				return err
			}
			if keep {
				_, err := sa.CompleteAllData(rng)
				return err
			}
			_, err := sa.CompleteAll(rng)
			return err
		})
		for _, sup := range []*driver.Supervisor{nvSup, saSup} {
			if _, err := sup.Watch(); err != nil {
				t.Fatalf("step %d watchdog: %v", i, err)
			}
		}
	}
	return f.ScheduleBytes(), sys.CPU.Now(), sys.Dev.Now()
}

// TestDiscardedPayloadsDrawLikeCopies: a workload that drops its payloads
// sees the same faults, and spends the same virtual cycles, as one that
// copies them out. Only the copy differs, so a caller may choose either
// without moving a fault schedule. (The device's Tx side is the same
// choice between dma.(*Engine).Read and ReadDiscard, which package dma
// compares; a capturing device would allocate every fault-flipped Tx
// length.)
func TestDiscardedPayloadsDrawLikeCopies(t *testing.T) {
	var readCorrupt int
	for _, w := range []struct {
		name string
		run  func(testing.TB, Mode, faults.Config, int, bool) ([]byte, uint64, uint64)
	}{{"nic", faultRun}, {"storage", storageRun}} {
		for _, mode := range []Mode{Strict, RIOMMU} {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := faults.UniformConfig(seed, 0.05)
				s1, c1, d1 := w.run(t, mode, cfg, 16, true)
				s2, c2, d2 := w.run(t, mode, cfg, 16, false)
				if !bytes.Equal(s1, s2) || c1 != c2 || d1 != d2 {
					t.Errorf("%s %s seed %d: copying and discarding runs differ: schedules of %d and %d bytes, CPU %d vs %d, device %d vs %d",
						w.name, mode, seed, len(s1), len(s2), c1, c2, d1, d2)
				}
				for rec := s1; len(rec) >= 19; rec = rec[19:] { // see ScheduleBytes
					if faults.Class(rec[8]) == faults.MemReadCorrupt {
						readCorrupt++
					}
				}
			}
		}
	}
	if readCorrupt == 0 {
		t.Error("no run drew a read corruption")
	}
	t.Logf("%d read corruptions across the runs", readCorrupt)
}

// FuzzFaultDeterminism is the acceptance property for the injection engine:
// for any (seed, rate, workload length), two runs of the identical workload
// produce a byte-identical fault schedule and identical virtual-clock totals.
// Any use of wall time, math/rand global state, or map-iteration order in a
// fault or recovery path breaks this immediately.
func FuzzFaultDeterminism(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(20))
	f.Add(uint64(42), uint8(0), uint8(10))
	f.Add(uint64(0xDEAD), uint8(100), uint8(40))
	f.Add(uint64(7), uint8(37), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, ratePct uint8, steps uint8) {
		rate := float64(ratePct%31) / 100
		n := int(steps%16) + 1
		for _, mode := range []Mode{Strict, RIOMMU} {
			cfg := faults.UniformConfig(seed, rate)
			s1, c1, d1 := faultRun(t, mode, cfg, n, false)
			s2, c2, d2 := faultRun(t, mode, cfg, n, false)
			if !bytes.Equal(s1, s2) {
				t.Errorf("%s: seed=%d rate=%v steps=%d: fault schedules differ (%d vs %d bytes)",
					mode, seed, rate, n, len(s1), len(s2))
			}
			if c1 != c2 {
				t.Errorf("%s: CPU clocks differ: %d vs %d", mode, c1, c2)
			}
			if d1 != d2 {
				t.Errorf("%s: device clocks differ: %d vs %d", mode, d1, d2)
			}
		}
	})
}
