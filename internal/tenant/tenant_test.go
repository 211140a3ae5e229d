package tenant

import (
	"errors"
	"testing"

	"riommu/internal/audit"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

func testProfile() device.NICProfile {
	p := device.ProfileBRCM
	p.RxEntries = 64
	p.TxEntries = 64
	return p
}

func newTestHost(t *testing.T, pages uint64) *Host {
	t.Helper()
	h, err := NewHost(pages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestStage2ResolveBasics: stage-2 translation preserves offsets, caches in
// the per-domain TLB, and charges walk cycles to the stage2 component.
func TestStage2ResolveBasics(t *testing.T) {
	h := newTestHost(t, 64)
	d, err := h.AdoptSpace(16)
	if err != nil {
		t.Fatal(err)
	}
	gpa := uint64(3)<<mem.PageShift + 0x123
	hpa, err := d.Stage2(gpa, 64, pci.DirBidi)
	if err != nil {
		t.Fatalf("Stage2: %v", err)
	}
	if uint64(hpa)&mem.PageMask != gpa&mem.PageMask {
		t.Fatalf("offset not preserved: gpa=%#x hpa=%#x", gpa, hpa)
	}
	if own := h.Owner(mem.PFNOf(hpa)); own != d.ID {
		t.Fatalf("resolved frame owned by %d, want %d", own, d.ID)
	}
	if d.S2Misses != 1 || d.S2Hits != 0 {
		t.Fatalf("first access: hits=%d misses=%d", d.S2Hits, d.S2Misses)
	}
	walked := h.Clk.Total(cycles.Stage2)
	if walked == 0 {
		t.Fatal("stage-2 walk charged nothing")
	}
	if _, err := d.Stage2(gpa, 64, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	if d.S2Hits != 1 {
		t.Fatalf("second access missed the stage-2 TLB: hits=%d misses=%d", d.S2Hits, d.S2Misses)
	}
	if h.Clk.Total(cycles.Stage2) != walked {
		t.Fatal("TLB hit charged a walk")
	}

	// A sub-page access straddling a stage-2 page boundary touches both.
	straddle := uint64(5)<<mem.PageShift - 8
	if _, err := d.Stage2(straddle, 64, pci.DirBidi); err != nil {
		t.Fatalf("straddling access: %v", err)
	}
	if d.S2Misses != 3 {
		t.Fatalf("straddle resolved %d pages total, want 2 more walks", d.S2Misses)
	}

	// Beyond the granted space: fault, counted.
	if _, err := d.Stage2(uint64(16)<<mem.PageShift, 64, pci.DirBidi); err == nil {
		t.Fatal("access beyond the granted space succeeded")
	}
	if d.S2Faults != 1 {
		t.Fatalf("S2Faults = %d", d.S2Faults)
	}
}

// TestReclaimGrantOwnership: reclaim revokes translation immediately under
// the strict invalidation default, and the LIFO frame allocator hands the
// reclaimed host frame to the next grantee.
func TestReclaimGrantOwnership(t *testing.T) {
	h := newTestHost(t, 64)
	orc := h.EnableAudit()
	a, err := h.AdoptSpace(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AdoptSpace(8)
	if err != nil {
		t.Fatal(err)
	}
	gpa := uint64(3) << mem.PageShift
	hpa, err := a.Stage2(gpa, 64, pci.DirBidi) // warm the stage-2 TLB
	if err != nil {
		t.Fatal(err)
	}
	f := mem.PFNOf(hpa)
	if err := h.Reclaim(a, gpa, 1); err != nil {
		t.Fatal(err)
	}
	if own := h.Owner(f); own != -1 {
		t.Fatalf("reclaimed frame still owned by %d", own)
	}
	if _, err := a.Stage2(gpa, 64, pci.DirBidi); err == nil {
		t.Fatal("strict invalidation left the reclaimed page translatable")
	}
	bGrant := uint64(8) << mem.PageShift
	if err := h.Grant(b, bGrant, 1, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	hpaB, err := b.Stage2(bGrant, 64, pci.DirBidi)
	if err != nil {
		t.Fatal(err)
	}
	if mem.PFNOf(hpaB) != f {
		t.Fatalf("LIFO reuse broken: B got frame %d, want reclaimed %d", mem.PFNOf(hpaB), f)
	}
	if orc.Violations != 0 {
		t.Fatalf("benign reclaim/grant flagged: %v", orc.Events)
	}
}

// TestLazyInvalidationCaughtByOracle is the oracle-liveness proof: with
// lazy stage-2 invalidation, a reclaimed-and-regranted page stays
// translatable through the stale TLB entry — the access LANDS on the new
// owner's frame, and the tenant oracle must flag it cross-tenant.
func TestLazyInvalidationCaughtByOracle(t *testing.T) {
	h := newTestHost(t, 64)
	h.LazyInvalidate = true
	orc := h.EnableAudit()
	a, err := h.AdoptSpace(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AdoptSpace(8)
	if err != nil {
		t.Fatal(err)
	}
	gpa := uint64(5) << mem.PageShift
	hpa, err := a.Stage2(gpa, 64, pci.DirBidi)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Reclaim(a, gpa, 1); err != nil {
		t.Fatal(err)
	}
	if a.PendingInvalidations() == 0 {
		t.Fatal("lazy reclaim queued no invalidation")
	}
	if err := h.Grant(b, uint64(8)<<mem.PageShift, 1, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	replay, err := a.Stage2(gpa, 64, pci.DirBidi)
	if err != nil {
		t.Fatalf("stale window closed unexpectedly: %v", err)
	}
	if replay != hpa {
		t.Fatalf("stale replay resolved to %#x, warmed %#x", replay, hpa)
	}
	if orc.CrossTenant != 1 || orc.ByReason[audit.ReasonCrossTenant] != 1 {
		t.Fatalf("cross-tenant landing not flagged: %+v", orc.ByReason)
	}
	// Draining the queue closes the window.
	a.DrainInvalidations()
	if _, err := a.Stage2(gpa, 64, pci.DirBidi); err == nil {
		t.Fatal("stale window still open after drain")
	}
	if a.S2Flushes != 1 {
		t.Fatalf("S2Flushes = %d", a.S2Flushes)
	}
}

// TestBalloonQuota: the balloon hypercall remaps the tenant's highest pages
// to fresh frames, and the per-window quota throttles a flood.
func TestBalloonQuota(t *testing.T) {
	h := newTestHost(t, 64)
	h.BalloonQuota = 8
	h.BalloonWindow = 1_000_000
	d, err := h.AdoptSpace(16)
	if err != nil {
		t.Fatal(err)
	}
	top := uint64(15) << mem.PageShift
	before, err := d.Stage2(top, 64, pci.DirBidi)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Balloon(d, 4); err != nil {
		t.Fatal(err)
	}
	after, err := d.Stage2(top, 64, pci.DirBidi)
	if err != nil {
		t.Fatalf("ballooned page unreachable: %v", err)
	}
	if after == before {
		t.Fatal("balloon did not move the page to a fresh frame")
	}
	if d.Ballooned != 4 {
		t.Fatalf("Ballooned = %d", d.Ballooned)
	}
	if err := h.Balloon(d, 8); !errors.Is(err, ErrBalloonThrottled) {
		t.Fatalf("over-quota balloon: err = %v, want ErrBalloonThrottled", err)
	}
	if d.Throttled != 1 || h.Throttled != 1 {
		t.Fatalf("throttle counters: domain=%d host=%d", d.Throttled, h.Throttled)
	}
	// A new window restores the budget.
	h.Clk.Charge(cycles.Stage2, h.BalloonWindow)
	if err := h.Balloon(d, 8); err != nil {
		t.Fatalf("balloon in a fresh window: %v", err)
	}
}

// TestDeviceDirectorySpoofBlocked: a DMA tagged with a BDF the directory
// assigns to another domain must die at the directory even when stage 1
// (the unprotected mode here) passes everything.
func TestDeviceDirectorySpoofBlocked(t *testing.T) {
	h := newTestHost(t, 128)
	sysA, err := sim.New(sim.Spec{Mode: sim.None, MemPages: 1 << 9})
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	a, err := h.AdoptSystem(sysA)
	if err != nil {
		t.Fatal(err)
	}
	bdfA := pci.NewBDF(1, 0, 0)
	if _, err := h.AttachDevice(a, testProfile(), bdfA, 1); err != nil {
		t.Fatal(err)
	}
	b, err := h.AdoptSpace(8)
	if err != nil {
		t.Fatal(err)
	}
	bdfB := pci.NewBDF(2, 0, 0)
	if err := h.Register(b, bdfB); err != nil {
		t.Fatal(err)
	}
	// Double-assignment must be refused.
	if err := h.Register(a, bdfB); err == nil {
		t.Fatal("directory allowed re-assigning another tenant's device")
	}
	if h.DirectoryOwner(bdfB) != b {
		t.Fatal("directory owner wrong")
	}

	f, err := sysA.Mem.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	// The owned device lands; the spoofed one dies at the directory.
	if err := sysA.Eng.Write(bdfA, uint64(f.PA()), payload); err != nil {
		t.Fatalf("legitimate DMA failed: %v", err)
	}
	if err := sysA.Eng.Write(bdfB, uint64(f.PA()), payload); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("spoofed DMA: err = %v, want ErrNotOwner", err)
	}
	if a.SpoofBlocked != 1 || h.SpoofBlocked != 1 {
		t.Fatalf("spoof counters: domain=%d host=%d", a.SpoofBlocked, h.SpoofBlocked)
	}
}

// TestHostDeterminism: identical op sequences produce identical clock
// totals and oracle counters — no map-iteration order leaks.
func TestHostDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		h := newTestHost(t, 64)
		orc := h.EnableAudit()
		d, err := h.AdoptSpace(16)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 16; i++ {
			if _, err := d.Stage2(i<<mem.PageShift, 128, pci.DirBidi); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Balloon(d, 5); err != nil {
			t.Fatal(err)
		}
		return h.Clk.Total(cycles.Stage2), orc.Checked, orc.S2Unmaps
	}
	c1, k1, u1 := run()
	c2, k2, u2 := run()
	if c1 != c2 || k1 != k2 || u1 != u2 {
		t.Fatalf("nondeterministic host: (%d,%d,%d) vs (%d,%d,%d)", c1, k1, u1, c2, k2, u2)
	}
}
