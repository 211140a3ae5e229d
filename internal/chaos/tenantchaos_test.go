package chaos

import (
	"errors"
	"reflect"
	"testing"

	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/tenant"
)

func TestParseTenantScenarios(t *testing.T) {
	all, err := ParseTenant("all")
	if err != nil || !reflect.DeepEqual(all, TenantScenarios()) {
		t.Fatalf("ParseTenant(all) = %v, %v", all, err)
	}
	got, err := ParseTenant(" bdf-spoof , s2-inv-flood ")
	if err != nil || !reflect.DeepEqual(got, []TenantScenario{BDFSpoof, S2InvFlood}) {
		t.Fatalf("ParseTenant list = %v, %v", got, err)
	}
	for _, bad := range []string{"", "nope", "s2-stale-replay,nope"} {
		if _, err := ParseTenant(bad); err == nil {
			t.Errorf("ParseTenant(%q) accepted", bad)
		}
	}
}

// hostileWorld builds a two-tenant hypervisor over a real guest system for
// tenant 0 and hands back the hostile-tenant model driving its attack
// device. Mode none keeps stage 1 wide open: containment shown here is
// stage 2's alone.
func hostileWorld(t *testing.T) (*tenant.Host, *tenant.Domain, *HostileTenant, *sim.System) {
	t.Helper()
	h, err := tenant.NewHost(128)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	h.EnableAudit()
	sys, err := sim.New(sim.Spec{Mode: sim.None, MemPages: 1 << 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	dom, err := h.AdoptSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	bdf := pci.NewBDF(1, 0, 1)
	prot, err := sys.ProtectionFor(bdf, []uint32{64})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Register(dom, bdf); err != nil {
		t.Fatal(err)
	}
	return h, dom, NewHostileTenant(sys.Eng, prot, bdf), sys
}

// TestHostileReplayContainedAfterReclaim: the stale windows land while the
// pages are granted, and every probe dies at stage 2 after the reclaim.
func TestHostileReplayContainedAfterReclaim(t *testing.T) {
	h, dom, hostile, sys := hostileWorld(t)
	first, err := sys.Mem.AllocFrames(2)
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(first.PA())
	if err := hostile.PlantStale([]uint64{base, base + mem.PageSize}); err != nil {
		t.Fatal(err)
	}
	if err := hostile.Replay(); err != nil {
		t.Fatalf("pre-reclaim replay should land: %v", err)
	}
	if hostile.Stats.Landed != 2 {
		t.Fatalf("warm replay landed %d, want 2", hostile.Stats.Landed)
	}
	if err := h.Reclaim(dom, base, 2); err != nil {
		t.Fatal(err)
	}
	if err := hostile.Replay(); !errors.Is(err, ErrAttackContained) {
		t.Fatalf("post-reclaim replay: err = %v, want ErrAttackContained", err)
	}
	if hostile.Stats.Contained != 2 || hostile.Stats.Attempts != 4 {
		t.Fatalf("stats = %+v", hostile.Stats)
	}
	if h.Oracle().CrossTenant != 0 {
		t.Fatalf("contained probes flagged cross-tenant: %d", h.Oracle().CrossTenant)
	}
}

// TestHostileOverreachContained: GPAs beyond the granted space must fault
// at stage 2 every round, advancing the probe cursor.
func TestHostileOverreachContained(t *testing.T) {
	_, _, hostile, _ := hostileWorld(t)
	base := uint64(1) << 9 << mem.PageShift // first page past the guest's space
	for i := 0; i < 3; i++ {
		if err := hostile.Overreach(base); !errors.Is(err, ErrAttackContained) {
			t.Fatalf("overreach %d: err = %v, want ErrAttackContained", i, err)
		}
	}
	if hostile.Stats.Contained != 3 || hostile.Stats.Landed != 0 {
		t.Fatalf("stats = %+v", hostile.Stats)
	}
}

// TestHostileSpoofContained: DMAs tagged with a foreign BDF die at the
// device directory even in the unprotected stage-1 mode.
func TestHostileSpoofContained(t *testing.T) {
	h, _, hostile, _ := hostileWorld(t)
	peer, err := h.AdoptSpace(8)
	if err != nil {
		t.Fatal(err)
	}
	victim := pci.NewBDF(2, 0, 0)
	if err := h.Register(peer, victim); err != nil {
		t.Fatal(err)
	}
	if err := hostile.Spoof([]pci.BDF{victim}); !errors.Is(err, ErrAttackContained) {
		t.Fatalf("spoof: err = %v, want ErrAttackContained", err)
	}
	if h.SpoofBlocked != 1 {
		t.Fatalf("SpoofBlocked = %d", h.SpoofBlocked)
	}
}

func TestHostileRecord(t *testing.T) {
	var hostile HostileTenant
	hostile.Record(nil)
	hostile.Record(errors.New("bounced"))
	want := Stats{Attempts: 2, Contained: 1, Landed: 1}
	if hostile.Stats != want {
		t.Fatalf("stats = %+v, want %+v", hostile.Stats, want)
	}
}
