package sim

import (
	"bytes"
	"testing"

	"riommu/internal/audit"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/intremap"
)

// smallMQProfile keeps hot-plug tests fast.
func smallMQProfile() device.NICProfile {
	p := device.ProfileBRCM
	p.RxEntries = 64
	p.TxEntries = 64
	return p
}

func TestLifecycleTransitionGuards(t *testing.T) {
	sys, err := NewSystem(RIOMMU, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	lc := sys.LifecycleFor(bdf)
	if lc.State() != Detached {
		t.Fatalf("fresh slot state = %s", lc.State())
	}
	// Detached can't remove or complete.
	if err := lc.SurpriseRemove(); err == nil {
		t.Fatal("remove from detached allowed")
	}
	if err := lc.CompleteAttach(); err == nil {
		t.Fatal("complete without begin allowed")
	}
	if err := lc.BeginAttach(); err != nil {
		t.Fatal(err)
	}
	// Attaching can't begin again or quarantine.
	if err := lc.BeginAttach(); err == nil {
		t.Fatal("double begin allowed")
	}
	if err := lc.Quarantine(); err == nil {
		t.Fatal("quarantine from attaching allowed")
	}
	if err := lc.CompleteAttach(); err != nil {
		t.Fatal(err)
	}
	if lc.State() != Live {
		t.Fatalf("state = %s, want live", lc.State())
	}
	if err := lc.SurpriseRemove(); err != nil {
		t.Fatal(err)
	}
	if err := lc.Quarantine(); err != nil {
		t.Fatal(err)
	}
	// Quarantined only leaves via BeginAttach.
	if err := lc.SurpriseRemove(); err == nil {
		t.Fatal("remove from quarantined allowed")
	}
	if err := lc.BeginAttach(); err != nil {
		t.Fatal(err)
	}
}

// TestSurpriseRemovalSilencesDevice runs the full story in every mode with
// a table: attach, traffic, surprise removal mid-flight, then proof that
// the ghost neither DMAs nor delivers interrupts, then replug and recovery.
func TestSurpriseRemovalSilencesDevice(t *testing.T) {
	for _, mode := range allNine() {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := NewSystem(mode, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if _, err := sys.EnableIntAudit(); err != nil {
				t.Fatal(err)
			}
			mq, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			lc := sys.LifecycleFor(bdf)
			if lc.State() != Live {
				t.Fatalf("state = %s", lc.State())
			}

			payload := bytes.Repeat([]byte{5}, 400)
			for i := 0; i < 4; i++ {
				if err := mq.Send(payload); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := mq.PumpAndReapAll(); err != nil {
				t.Fatal(err)
			}

			// Latch completions, then yank the device before the reap.
			for i := 0; i < 4; i++ {
				if err := mq.Send(payload); err != nil {
					t.Fatal(err)
				}
			}
			for _, drv := range mq.Queues {
				if _, err := drv.PumpTx(int(drv.TxRing().Pending())); err != nil {
					t.Fatal(err)
				}
			}
			deliveredBefore := sys.IntRemap.Stats().Delivered
			if err := lc.SurpriseRemove(); err != nil {
				t.Fatal(err)
			}

			// The ghost's DMA must fault...
			if err := mq.Send(payload); err == nil {
				if _, err := mq.Queues[0].PumpTx(1); err == nil {
					t.Fatal("ghost device still DMAs after removal")
				}
			}
			// ...and its latched interrupts must never deliver.
			for _, drv := range mq.Queues {
				_, _ = drv.ReapTx()
			}
			if got := sys.IntRemap.Stats().Delivered; got != deliveredBefore {
				t.Fatalf("ghost delivered %d interrupts after removal", got-deliveredBefore)
			}
			if sys.IntAuditor.Violations != 0 {
				t.Fatalf("oracle flagged %d violations: %+v", sys.IntAuditor.Violations, sys.IntAuditor.ByReason)
			}

			// Replug: a fresh device in the slot comes back Live and works.
			mq2, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 2, false)
			if err != nil {
				t.Fatalf("replug: %v", err)
			}
			if lc.State() != Live || lc.Outages != 1 || lc.DowntimeCycles == 0 {
				t.Fatalf("after replug: state=%s outages=%d downtime=%d", lc.State(), lc.Outages, lc.DowntimeCycles)
			}
			for i := 0; i < 4; i++ {
				if err := mq2.Send(payload); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := mq2.PumpAndReapAll(); err != nil || n != 4 {
				t.Fatalf("replugged device: sent %d, err %v", n, err)
			}
			if sys.IntAuditor.Violations != 0 {
				t.Fatalf("violations after replug: %+v", sys.IntAuditor.ByReason)
			}
		})
	}
}

func TestIntRemapModePolicy(t *testing.T) {
	cases := []struct {
		mode Mode
		pass bool
	}{
		{Strict, false}, {Defer, false}, {RIOMMU, false},
		{None, true}, {HWpt, true}, {SWpt, true},
	}
	for _, c := range cases {
		sys, err := NewSystem(c.mode, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		rem, err := sys.EnableIntRemap()
		if err != nil {
			t.Fatal(err)
		}
		if rem.PassThrough() != c.pass {
			t.Errorf("%s: pass-through = %v, want %v", c.mode, rem.PassThrough(), c.pass)
		}
		sys.Close()
	}
}

// TestDeferredIntRemapStaleWindowEndToEnd drives the defer-mode interrupt
// stale window through the sim layer: free a source's IRTE, replay it, and
// watch the oracle classify the delivered violation as int-stale.
func TestDeferredIntRemapStaleWindowEndToEnd(t *testing.T) {
	sys, err := NewSystem(Defer, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	orc, err := sys.EnableIntAudit()
	if err != nil {
		t.Fatal(err)
	}
	rem := sys.IntRemap
	idx, err := rem.Alloc(bdf, 0x40, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if out := rem.Deliver(bdf, idx, 0, 0); out != intremap.Delivered {
		t.Fatalf("warmup: %v", out)
	}
	if err := rem.Free(idx); err != nil {
		t.Fatal(err)
	}
	if out := rem.Deliver(bdf, idx, 0, 0); out != intremap.Delivered {
		t.Fatalf("defer mode should leave the stale window open, got %v", out)
	}
	if orc.ByReason[audit.IntReasonStale] != 1 {
		t.Fatalf("stale window not flagged: %+v", orc.ByReason)
	}
	rem.FlushIEC()
	if out := rem.Deliver(bdf, idx, 0, 0); out == intremap.Delivered {
		t.Fatal("window still open after flush")
	}
}

// TestLifecycleOutageLedger: the cumulative Outages/DowntimeCycles ledger
// must survive multiple removals of one slot and count only closed
// outages.
func TestLifecycleOutageLedger(t *testing.T) {
	sys, err := NewSystem(Strict, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 1, false); err != nil {
		t.Fatal(err)
	}
	lc := sys.LifecycleFor(bdf)

	var wantDown uint64
	for i, gap := range []uint64{40_000, 90_000} {
		if err := lc.SurpriseRemove(); err != nil {
			t.Fatal(err)
		}
		removed := sys.CPU.Now()
		sys.CPU.Charge(cycles.Recovery, gap)
		if _, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 1, false); err != nil {
			t.Fatal(err)
		}
		wantDown += sys.CPU.Now() - removed
		if lc.Outages != uint64(i+1) {
			t.Fatalf("after removal %d: Outages = %d", i+1, lc.Outages)
		}
	}
	if lc.DowntimeCycles != wantDown {
		t.Fatalf("DowntimeCycles = %d, want %d", lc.DowntimeCycles, wantDown)
	}

	// An unrecovered removal is not yet an outage in the ledger.
	if err := lc.SurpriseRemove(); err != nil {
		t.Fatal(err)
	}
	sys.CPU.Charge(cycles.Recovery, 30_000)
	if lc.Outages != 2 || lc.DowntimeCycles != wantDown {
		t.Fatalf("open outage entered the ledger: Outages = %d, DowntimeCycles = %d", lc.Outages, lc.DowntimeCycles)
	}
}
