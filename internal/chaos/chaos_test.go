package chaos

import (
	"reflect"
	"testing"

	"riommu/internal/audit"
	"riommu/internal/device"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

var bdf = pci.NewBDF(0, 3, 0)

// runTraffic builds an audited system, drives a NIC workload long enough to
// create and retire mappings, leaves one Tx buffer mapped (a live read-only
// target), and returns a hostile device over the result.
func runTraffic(t *testing.T, mode sim.Mode, rounds int) (*audit.Oracle, *Hostile) {
	t.Helper()
	sys, err := sim.New(sim.Spec{Mode: mode, MemPages: 1 << 15, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	orc := sys.Auditor
	drv, _, err := sys.AttachNIC(device.ProfileBRCM, bdf)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	for r := 0; r < rounds; r++ {
		if err := drv.Send(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.PumpTx(2); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.ReapTx(); err != nil {
			t.Fatal(err)
		}
		if err := drv.Deliver(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.ReapRx(); err != nil {
			t.Fatal(err)
		}
	}
	// One unreaped Tx buffer stays mapped read-only for WriteReadOnly.
	if err := drv.Send(payload); err != nil {
		t.Fatal(err)
	}
	if orc.Violations != 0 {
		t.Fatalf("legitimate %s traffic produced violations: %+v", mode, orc.Events)
	}
	return orc, NewHostile(sys.Eng, orc, bdf)
}

func TestStaleReplayDeferWindow(t *testing.T) {
	orc, h := runTraffic(t, sim.Defer, 20)
	h.ReplayRetired(16)
	if h.Stats.Attempts == 0 {
		t.Fatal("no retired mappings to replay")
	}
	if h.Stats.Landed == 0 {
		t.Fatal("defer mode contained every stale replay — the window should be open")
	}
	if orc.ByReason[audit.ReasonStale] == 0 {
		t.Fatalf("landed stale replays not classified stale: %+v", orc.ByReason)
	}
}

func TestStaleReplaySafeModesViolationFree(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Strict, sim.RIOMMU} {
		orc, h := runTraffic(t, mode, 20)
		h.ReplayRetired(16)
		if h.Stats.Attempts == 0 {
			t.Fatalf("%s: no retired mappings to replay", mode)
		}
		if orc.Violations != 0 {
			t.Errorf("%s: stale replay violated isolation: %+v", mode, orc.Events)
		}
	}
}

func TestOverreachSubPageGap(t *testing.T) {
	// Baseline protection is page-granular: running past a 2 KiB buffer
	// inside its 4 KiB page translates fine and the oracle flags bounds.
	orc, h := runTraffic(t, sim.Strict, 10)
	h.OverreachLive(8)
	if h.Stats.Landed == 0 {
		t.Fatal("baseline contained sub-page overreach — page granularity should let it through")
	}
	if orc.ByReason[audit.ReasonBounds] == 0 {
		t.Fatalf("landed overreach not classified bounds: %+v", orc.ByReason)
	}

	// rIOMMU rPTEs are byte-granular: the same attack faults at the boundary.
	orc, h = runTraffic(t, sim.RIOMMU, 10)
	h.OverreachLive(8)
	if h.Stats.Attempts == 0 {
		t.Fatal("riommu: no live mappings to overreach")
	}
	if h.Stats.Landed != 0 || orc.Violations != 0 {
		t.Errorf("riommu let overreach through: landed=%d violations=%d", h.Stats.Landed, orc.Violations)
	}
}

func TestWriteReadOnlyContained(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Strict, sim.RIOMMU} {
		orc, h := runTraffic(t, mode, 5)
		h.WriteReadOnly(4)
		if h.Stats.Attempts == 0 {
			t.Fatalf("%s: no read-only mappings to attack", mode)
		}
		if h.Stats.Landed != 0 || orc.Violations != 0 {
			t.Errorf("%s: write through read-only mapping landed: %+v", mode, h.Stats)
		}
	}
}

func TestHostileDeterministic(t *testing.T) {
	run := func() (Stats, uint64, map[string]uint64) {
		orc, h := runTraffic(t, sim.Defer, 20)
		h.ReplayRetired(16)
		h.OverreachLive(8)
		h.WriteReadOnly(4)
		return h.Stats, orc.Violations, orc.ByReason
	}
	s1, v1, r1 := run()
	s2, v2, r2 := run()
	if s1 != s2 || v1 != v2 || !reflect.DeepEqual(r1, r2) {
		t.Errorf("hostile run not deterministic: %+v/%d/%v vs %+v/%d/%v", s1, v1, r1, s2, v2, r2)
	}
}

func TestParse(t *testing.T) {
	all, err := Parse("all")
	if err != nil || len(all) != len(Scenarios()) {
		t.Fatalf("Parse(all) = %v, %v", all, err)
	}
	two, err := Parse(" stale-replay, overreach ")
	if err != nil || len(two) != 2 || two[0] != StaleReplay || two[1] != Overreach {
		t.Fatalf("Parse(csv) = %v, %v", two, err)
	}
	if _, err := Parse("nonsense"); err == nil {
		t.Error("Parse accepted an unknown scenario")
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse accepted an empty list")
	}
}
