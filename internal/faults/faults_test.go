package faults

import (
	"bytes"
	"math/bits"
	"testing"

	"riommu/internal/pci"
)

var dev = pci.NewBDF(0, 3, 0)

// exercise drives one engine through a fixed mixed call sequence.
func exercise(e *Engine) {
	buf := make([]byte, 64)
	for i := 0; i < 500; i++ {
		switch i % 6 {
		case 0:
			e.ReadFault(0x1000, len(buf))
		case 1:
			e.WriteFault(0x2000, len(buf))
		case 2:
			e.StaleDMA(dev, uint64(i)<<12)
		case 3:
			w0, w1 := uint64(i), uint64(i*7)
			e.FlipDescriptor(dev, uint64(i), &w0, &w1)
		case 4:
			if e.HangCheck(dev) {
				e.ClearHang(dev)
			}
		case 5:
			e.DropInvalidation(dev, uint64(i))
			e.DelayInvalidation(dev, uint64(i))
		}
	}
}

func TestDeterministicSchedule(t *testing.T) {
	a := New(UniformConfig(42, 0.1))
	b := New(UniformConfig(42, 0.1))
	exercise(a)
	exercise(b)
	if a.TotalInjected() == 0 {
		t.Fatal("no faults injected at rate 0.1")
	}
	if !bytes.Equal(a.ScheduleBytes(), b.ScheduleBytes()) {
		t.Error("same seed+workload produced different schedules")
	}
	if a.seq != b.seq {
		t.Errorf("opportunity counts differ: %d vs %d", a.seq, b.seq)
	}
	c := New(UniformConfig(43, 0.1))
	exercise(c)
	if bytes.Equal(a.ScheduleBytes(), c.ScheduleBytes()) {
		t.Error("different seeds produced identical non-empty schedules")
	}
}

func TestZeroRateInjectsNothing(t *testing.T) {
	e := New(Config{Seed: 1})
	exercise(e)
	if e.TotalInjected() != 0 {
		t.Errorf("injected %d faults with all rates zero", e.TotalInjected())
	}
	if e.seq == 0 {
		t.Error("opportunities not counted")
	}
	if len(e.ScheduleBytes()) != 0 {
		t.Error("non-empty schedule")
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	buf := []byte{1, 2, 3}
	_, wmask, poison := e.WriteFault(0, len(buf))
	if _, mask := e.ReadFault(0, len(buf)); mask != 0 || wmask != 0 || poison {
		t.Error("nil engine injected")
	}
	if iova, hit := e.StaleDMA(dev, 0x123); hit || iova != 0x123 {
		t.Error("nil engine redirected a DMA")
	}
	w0, w1 := uint64(5), uint64(6)
	if e.FlipDescriptor(dev, 0, &w0, &w1) || w0 != 5 || w1 != 6 {
		t.Error("nil engine flipped a descriptor")
	}
	if e.HangCheck(dev) {
		t.Error("nil engine hung a device")
	}
	e.ClearHang(dev)
	e.SetRate(DeviceHang, 1)
	if e.DropInvalidation(dev, 0) || e.DelayInvalidation(dev, 0) {
		t.Error("nil engine perturbed an invalidation")
	}
	if e.TotalInjected() != 0 || e.ScheduleBytes() != nil {
		t.Error("nil engine has state")
	}
}

func TestHangIsStickyUntilCleared(t *testing.T) {
	cfg := Config{Seed: 9}
	cfg.Rates[DeviceHang] = 1
	e := New(cfg)
	if !e.HangCheck(dev) {
		t.Fatal("rate-1 hang did not fire")
	}
	e.SetRate(DeviceHang, 0)
	if !e.HangCheck(dev) || !e.hung[dev] {
		t.Error("hang not sticky")
	}
	if e.Count(DeviceHang) != 1 {
		t.Errorf("sticky hang re-counted: %d", e.Count(DeviceHang))
	}
	e.ClearHang(dev)
	if e.hung[dev] || e.HangCheck(dev) {
		t.Error("hang survived ClearHang")
	}
}

func TestFlipDescriptorFlipsExactlyOneBit(t *testing.T) {
	cfg := Config{Seed: 3}
	cfg.Rates[DescBitFlip] = 1
	e := New(cfg)
	for i := 0; i < 100; i++ {
		w0, w1 := uint64(0), uint64(0)
		if !e.FlipDescriptor(dev, uint64(i), &w0, &w1) {
			t.Fatal("rate-1 flip did not fire")
		}
		if n := bits.OnesCount64(w0) + bits.OnesCount64(w1); n != 1 {
			t.Fatalf("flip changed %d bits", n)
		}
	}
}

func TestReadFaultCorruptsBuffer(t *testing.T) {
	cfg := Config{Seed: 5}
	cfg.Rates[MemReadCorrupt] = 1
	e := New(cfg)
	buf := make([]byte, 32)
	i, mask := e.ReadFault(0x40, len(buf))
	if mask == 0 {
		t.Fatal("rate-1 read corruption did not fire")
	}
	buf[i] ^= mask
	nonzero := 0
	for _, b := range buf {
		nonzero += bits.OnesCount8(b)
	}
	if nonzero != 1 {
		t.Errorf("corruption flipped %d bits, want 1", nonzero)
	}
}

func TestScheduleRecordsContext(t *testing.T) {
	cfg := Config{Seed: 11}
	cfg.Rates[DMAStale] = 1
	e := New(cfg)
	if iova, hit := e.StaleDMA(dev, 0xabc000); !hit || iova != StaleIOVA {
		t.Fatalf("stale redirect: %#x, %v", iova, hit)
	}
	sched := e.sched
	if len(sched) != 1 {
		t.Fatalf("schedule has %d entries", len(sched))
	}
	in := sched[0]
	if in.Class != DMAStale || in.BDF != dev || in.Addr != 0xabc000 || in.Seq != 1 {
		t.Errorf("bad injection record: %+v", in)
	}
	if len(e.ScheduleBytes()) != 19 {
		t.Errorf("record size %d, want 19", len(e.ScheduleBytes()))
	}
}

type captureSink struct{ n int }

func (c *captureSink) RecordFault(uint8, pci.BDF, uint64) { c.n++ }

func TestSinkObservesEveryInjection(t *testing.T) {
	e := New(UniformConfig(17, 0.5))
	sink := &captureSink{}
	e.Sink = sink
	exercise(e)
	if uint64(sink.n) != e.TotalInjected() {
		t.Errorf("sink saw %d, engine injected %d", sink.n, e.TotalInjected())
	}
}

func TestClassNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Classes() {
		n := c.String()
		if n == "" || seen[n] {
			t.Errorf("class %d has bad/duplicate name %q", int(c), n)
		}
		seen[n] = true
	}
	if len(seen) != int(NumClasses) {
		t.Errorf("%d names for %d classes", len(seen), NumClasses)
	}
}
