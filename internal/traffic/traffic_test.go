package traffic

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

func testConfig(mode sim.Mode) Config {
	return Config{
		Mode:            mode,
		Profile:         device.ProfileMLX,
		Seed:            42,
		TableSlots:      48,
		MeanFlowPackets: 2,
		Ticks:           16,
		WarmupTicks:     4,
		MsgsPerTick:     6,
		IncastEvery:     4,
		IncastFan:       12,
		Diurnal:         true,
		Audit:           true,
	}
}

// TestDeterminism: a run is a pure function of its Config — two runs agree
// on every field, including the digests and the full cycle ledger.
func TestDeterminism(t *testing.T) {
	for _, mode := range sim.AllModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			a, err := Run(testConfig(mode))
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			b, err := Run(testConfig(mode))
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("results differ between identical runs:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestKernelBypassAppStream: the application byte stream depends only on
// seed and schedule, so an all-kernel and an all-bypass run of the same
// Config produce the same AppDigest while their mapping histories differ.
func TestKernelBypassAppStream(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Strict, sim.Defer, sim.RIOMMU, sim.None} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			kc := testConfig(mode)
			bc := kc
			bc.BypassPermille = 1000
			k, err := Run(kc)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			b, err := Run(bc)
			if err != nil {
				t.Fatalf("bypass: %v", err)
			}
			if k.AppDigest != b.AppDigest {
				t.Fatalf("app stream diverged: kernel %#x bypass %#x", k.AppDigest, b.AppDigest)
			}
			if k.DataPackets != b.DataPackets {
				t.Fatalf("packet schedule diverged: kernel %d bypass %d", k.DataPackets, b.DataPackets)
			}
			if b.BypassPackets == 0 {
				t.Fatalf("bypass run sent no bypass packets")
			}
			if mode != sim.None && k.MapDigest == b.MapDigest {
				t.Fatalf("mapping history should differ between paths")
			}
		})
	}
}

// TestModesCleanUnderAudit: every mode survives a mixed kernel/bypass run
// with the oracle attached; no mode shows a violation without an attacker.
func TestModesCleanUnderAudit(t *testing.T) {
	for _, mode := range sim.AllModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(mode)
			cfg.BypassPermille = 300
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.AuditChecked == 0 {
				t.Fatalf("oracle checked nothing")
			}
			if res.AuditViolations != 0 {
				t.Fatalf("%d violations without an attacker", res.AuditViolations)
			}
			if res.Opens == 0 || res.Closes == 0 {
				t.Fatalf("no churn: opens=%d closes=%d", res.Opens, res.Closes)
			}
			if res.Opens != res.Closes {
				t.Fatalf("table must stay full: opens=%d closes=%d", res.Opens, res.Closes)
			}
			if res.Gbps <= 0 {
				t.Fatalf("non-positive throughput %v", res.Gbps)
			}
		})
	}
}

// TestChurnCostOrdering pins the collapse the figS2 sweep renders: at
// one-packet flows (every packet a map/unmap storm), strict must burn
// at least 3x the cycles of rIOMMU on the kernel path, and the bypass
// path must beat strict-kernel by at least 3x throughput.
func TestChurnCostOrdering(t *testing.T) {
	run := func(mode sim.Mode, bypass int) Result {
		t.Helper()
		cfg := testConfig(mode)
		cfg.MeanFlowPackets = 1
		cfg.BypassPermille = bypass
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v bypass=%d: %v", mode, bypass, err)
		}
		return res
	}
	strict := run(sim.Strict, 0)
	riommu := run(sim.RIOMMU, 0)
	strictBypass := run(sim.Strict, 1000)
	t.Logf("strict kernel: C=%.0f gbps=%.2f  riommu kernel: C=%.0f gbps=%.2f  strict bypass: C=%.0f gbps=%.2f",
		strict.CyclesPerPkt, strict.Gbps, riommu.CyclesPerPkt, riommu.Gbps,
		strictBypass.CyclesPerPkt, strictBypass.Gbps)
	if strict.CyclesPerPkt < 3*riommu.CyclesPerPkt {
		t.Errorf("strict C %.0f not >= 3x riommu C %.0f under max churn",
			strict.CyclesPerPkt, riommu.CyclesPerPkt)
	}
	if strictBypass.Gbps < 3*strict.Gbps {
		t.Errorf("bypass gbps %.2f not >= 3x strict kernel gbps %.2f",
			strictBypass.Gbps, strict.Gbps)
	}
}

// TestConfigValidation: bad configs are rejected, defaults fill zeroes.
func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{Mode: sim.Strict, TableSlots: -1}); err == nil {
		t.Fatalf("negative TableSlots accepted")
	}
	if _, err := NewEngine(Config{Mode: sim.Strict, BypassPermille: 1001}); err == nil {
		t.Fatalf("BypassPermille > 1000 accepted")
	}
	e, err := NewEngine(Config{Mode: sim.RIOMMU})
	if err != nil {
		t.Fatalf("defaulted config: %v", err)
	}
	if e.cfg.TableSlots == 0 || e.cfg.MeanFlowPackets == 0 || e.cfg.Profile.Name == "" {
		t.Fatalf("defaults not applied: %+v", e.cfg)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestBypassRearmCycle drives an all-bypass fleet far enough that the
// persistent pool's periodic rearm (unmap + remap of one buffer every
// bypassRearmEvery packets) fires several times: the polling path is not
// allowed to hold translations forever without ever paying an
// invalidation, and the rearm traffic must stay violation-free under the
// oracle in both the baseline and rIOMMU mapping paths.
func TestBypassRearmCycle(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Strict, sim.RIOMMU} {
		cfg := Config{
			Mode:            mode,
			Profile:         device.ProfileMLX,
			Seed:            7,
			TableSlots:      8,
			MeanFlowPackets: 1 << 20, // no churn noise: pure bypass stream
			BypassPermille:  1000,
			Ticks:           40,
			MsgsPerTick:     8,
			IncastEvery:     6,
			IncastFan:       4,
			Audit:           true,
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.BypassPackets < 2*bypassRearmEvery {
			t.Fatalf("%s: only %d bypass packets — the rearm cycle never fired twice", mode, r.BypassPackets)
		}
		if r.AuditViolations != 0 {
			t.Errorf("%s: %d violations from pool rearm", mode, r.AuditViolations)
		}
	}
}

// TestDrainQuiesces: after an explicit Drain the engine has no pending TX
// backlog or unreaped RX, so a second Drain is a no-op and teardown is
// clean even mid-schedule.
func TestDrainQuiesces(t *testing.T) {
	e, err := NewEngine(testConfig(sim.RIOMMU))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if e.txPend != 0 || e.rxPend != 0 {
		t.Fatalf("drain left txPend=%d rxPend=%d", e.txPend, e.rxPend)
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseFindsLeak: a world that ends holding a mapping its owners do
// not account for fails to close, with an error naming the protection
// layer's count and the owners', in each mapping mode, audited or not.
// The same world closes cleanly without the extra mapping, as every Run
// in this file does.
func TestCloseFindsLeak(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Strict, sim.Defer, sim.RIOMMU} {
		for _, audited := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/audit=%v", mode, audited), func(t *testing.T) {
				cfg := testConfig(mode)
				cfg.Audit = audited
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.RunSchedule(); err != nil {
					t.Fatal(err)
				}
				sys := e.System()
				prot := sys.Protections[BDF]
				live := prot.(interface{ Live() int }).Live()
				f, err := sys.Mem.AllocFrame()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := prot.Map(driver.RingTx, f.PA(), 64, pci.DirToDevice); err != nil {
					t.Fatal(err)
				}
				err = e.Close()
				if err == nil {
					t.Fatal("Close accepted a mapping no owner accounts for")
				}
				for _, c := range []string{fmt.Sprintf("%d live mappings", live+1), fmt.Sprintf("account for %d", live)} {
					if !strings.Contains(err.Error(), c) {
						t.Errorf("close error %q does not name %q", err, c)
					}
				}
			})
		}
	}
}
