package driver

import (
	"bytes"
	"errors"
	"testing"

	"riommu/internal/audit"
	"riommu/internal/baseline"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

var errFlakyMap = errors.New("flaky map")

// flakyProt fails the failAt-th Map once it is armed, and maps through the
// wrapped protection otherwise.
type flakyProt struct {
	Protection
	armed  bool
	maps   int
	failAt int
}

func (f *flakyProt) Map(ring int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	if f.armed {
		if f.maps++; f.maps == f.failAt {
			f.armed = false
			return 0, errFlakyMap
		}
	}
	return f.Protection.Map(ring, pa, size, dir)
}

// auditedProtection builds a strict or riommu world wired as sim.New wires
// an audited Spec: the oracle mirrors the driver's maps and unmaps, the
// hardware's invalidations and every translated DMA.
func auditedProtection(t *testing.T, mode string, mm *mem.PhysMem, profile device.NICProfile) (Protection, *dma.Engine, *audit.Oracle) {
	t.Helper()
	clk, dev := &cycles.Clock{}, &cycles.Clock{}
	model := cycles.DefaultModel()
	orc := audit.NewOracle(mode, clk)
	switch mode {
	case "strict":
		hier, err := pagetable.NewHierarchy(mm)
		if err != nil {
			t.Fatal(err)
		}
		hw := iommu.New(dev, &model, hier, 0)
		d, err := baseline.New(baseline.Strict, clk, &model, mm, hw, bdf, false)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAudit(orc)
		d.InvQueue().SetAudit(orc)
		eng := dma.NewEngine(mm, hw)
		eng.SetAudit(orc)
		return d, eng, orc
	case "riommu":
		hw := core.New(dev, &model, mm)
		hw.SetAudit(orc)
		d, err := core.NewDriver(clk, &model, mm, hw, bdf, RIOMMURingSizes(profile), true)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAudit(orc)
		eng := dma.NewEngine(mm, hw)
		eng.SetAudit(orc)
		return d, eng, orc
	}
	t.Fatalf("unknown mode %q", mode)
	return nil, nil, nil
}

// TestRxRefillMapFailure fails one Map in the middle of an Rx refill, after
// two maps of the same refill succeeded. ReapRx must return the map's
// error with the buffer whose map failed back in the pool and every other
// buffer posted and mapped; once the protection stops failing, the next
// reap tops the ring up again.
func TestRxRefillMapFailure(t *testing.T) {
	for _, mode := range []string{"strict", "riommu"} {
		t.Run(mode, func(t *testing.T) {
			profile := device.ProfileBRCM
			profile.RxEntries = 64
			profile.TxEntries = 64
			mm := mustMem(t, 1<<12*mem.PageSize)
			prot, eng, orc := auditedProtection(t, mode, mm, profile)
			flaky := &flakyProt{Protection: prot, failAt: 6}
			drv, _, err := NewNICDriver(mm, flaky, eng, profile, bdf)
			if err != nil {
				t.Fatal(err)
			}
			size := drv.RxRing().Size()
			liveRx := func() int {
				n := 0
				for _, m := range drv.rxSlots {
					if m.live {
						n++
					}
				}
				return n
			}
			// Rounds deliver 1, 2, 3 packets: the refills map 1, then 2,
			// then 3 buffers, and the third refill's last map fails.
			flaky.armed = true
			frame := bytes.Repeat([]byte{0x42}, 600)
			var reapErr error
			for round := 1; round <= 3 && reapErr == nil; round++ {
				for i := 0; i < round; i++ {
					if err := drv.Deliver(frame); err != nil {
						t.Fatal(err)
					}
				}
				_, reapErr = drv.ReapRx()
			}
			if !errors.Is(reapErr, errFlakyMap) {
				t.Fatalf("ReapRx error = %v, want the failed map's", reapErr)
			}
			if flaky.armed {
				t.Fatalf("the failure was not reached (%d maps)", flaky.maps)
			}
			live := liveRx()
			if want := int(size) - 2; live != want || int(drv.RxRing().Pending()) != want {
				t.Errorf("after the failed refill: %d live Rx slots, %d pending, want %d",
					live, drv.RxRing().Pending(), want)
			}
			if out := drv.pool.Outstanding(); out != live {
				t.Errorf("pool has %d buffers out, %d live Rx slots hold one each", out, live)
			}
			if orc.LiveNow != live+2 {
				t.Errorf("oracle sees %d live mappings, want %d Rx buffers + 2 rings", orc.LiveNow, live)
			}

			if err := drv.Deliver(frame); err != nil {
				t.Fatal(err)
			}
			frames, err := drv.ReapRxFrames()
			if err != nil || len(frames) != 1 || !bytes.Equal(frames[0], frame) {
				t.Fatalf("reap after the failure = %d frames, %v", len(frames), err)
			}
			if p := drv.RxRing().Pending(); p != size-1 {
				t.Errorf("reap after the failure left %d descriptors pending, want %d", p, size-1)
			}
			if live := liveRx(); drv.pool.Outstanding() != live || orc.LiveNow != live+2 {
				t.Errorf("after the refill: pool %d out, %d live Rx slots, oracle %d live",
					drv.pool.Outstanding(), live, orc.LiveNow)
			}
			if orc.Violations != 0 {
				t.Errorf("oracle flagged %d violations: %v", orc.Violations, orc.Events)
			}
			if err := drv.Teardown(); err != nil {
				t.Fatal(err)
			}
			if orc.LiveNow != 0 {
				t.Errorf("teardown left %d live mappings", orc.LiveNow)
			}
		})
	}
}
