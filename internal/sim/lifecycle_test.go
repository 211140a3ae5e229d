package sim

import (
	"bytes"
	"fmt"
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
	sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 13})
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
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 14, Audit: true, IntRemap: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			mq, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 2)
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
			mq2, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 2)
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
	// Audit alone installs no remapper, IntRemap alone a remapper and no
	// interrupt oracle, and both a remapper and an oracle, each in the
	// mode's pass-through policy.
	shapes := []struct {
		audit, intRemap bool
	}{{true, false}, {false, true}, {true, true}}
	for _, c := range cases {
		for _, sh := range shapes {
			sys, err := New(Spec{Mode: c.mode, MemPages: 1 << 12, Audit: sh.audit, IntRemap: sh.intRemap})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s audit=%v intremap=%v", c.mode, sh.audit, sh.intRemap)
			if rem := sys.IntRemap; (rem != nil) != sh.intRemap {
				t.Errorf("%s: remapper installed = %v, want %v", name, rem != nil, sh.intRemap)
			} else if rem != nil && rem.PassThrough() != c.pass {
				t.Errorf("%s: remapper pass-through = %v, want %v", name, rem.PassThrough(), c.pass)
			}
			orc := sys.IntAuditor
			if want := sh.audit && sh.intRemap; (orc != nil) != want {
				t.Errorf("%s: interrupt oracle installed = %v, want %v", name, orc != nil, want)
			} else if orc != nil {
				// A delivery through an IRTE nobody programmed is judged a
				// violation, except in pass-through, which only counts.
				orc.OnIntDelivered(intremap.Delivery{Source: bdf, Index: 7})
				if pass := orc.Violations == 0; pass != c.pass {
					t.Errorf("%s: oracle pass-through = %v, want %v", name, pass, c.pass)
				}
			}
			sys.Close()
		}
	}
}

// TestDeferredIntRemapStaleWindowEndToEnd drives the defer-mode interrupt
// stale window through the sim layer: free a source's IRTE, replay it, and
// watch the oracle classify the delivered violation as int-stale.
func TestDeferredIntRemapStaleWindowEndToEnd(t *testing.T) {
	sys, err := New(Spec{Mode: Defer, MemPages: 1 << 13, Audit: true, IntRemap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	orc, rem := sys.IntAuditor, sys.IntRemap
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
	sys, err := New(Spec{Mode: Strict, MemPages: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 1); err != nil {
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
		if _, err := sys.HotAttachMQNIC(smallMQProfile(), bdf, 1); err != nil {
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
