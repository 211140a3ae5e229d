package pagetable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

func newSpace(t *testing.T, coherent bool) (*Space, *mem.PhysMem, *cycles.Clock) {
	t.Helper()
	mm := mustMem(t, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	s, err := NewSpace(mm, clk, &model, coherent)
	if err != nil {
		t.Fatal(err)
	}
	return s, mm, clk
}

func TestMapWalkUnmap(t *testing.T) {
	s, mm, _ := newSpace(t, false)
	target, _ := mm.AllocFrame()

	iova := uint64(0x42000)
	if err := s.Map(iova, target, pci.DirBidi); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if s.Mapped() != 1 {
		t.Errorf("Mapped = %d, want 1", s.Mapped())
	}

	pa, perm, err := s.Walk(iova+0x123, pci.DirFromDevice)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if pa != target.PA()+0x123 {
		t.Errorf("Walk pa = %#x, want %#x", pa, target.PA()+0x123)
	}
	if perm != pci.DirBidi {
		t.Errorf("Walk perm = %v, want bidi", perm)
	}

	if err := s.Unmap(iova); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if s.Mapped() != 0 {
		t.Errorf("Mapped = %d after unmap", s.Mapped())
	}
	if _, _, err := s.Walk(iova, pci.DirFromDevice); err == nil {
		t.Fatal("Walk after Unmap should fault")
	}
}

func TestWalkFaultReasons(t *testing.T) {
	s, mm, _ := newSpace(t, true)
	target, _ := mm.AllocFrame()

	// Not present.
	_, _, err := s.Walk(0x5000, pci.DirToDevice)
	var f *Fault
	if !errors.As(err, &f) || f.Reason != FaultNotPresent {
		t.Errorf("unmapped walk fault = %v, want not-present", err)
	}

	// Permission: map Rx-only, attempt Tx.
	if err := s.Map(0x5000, target, pci.DirFromDevice); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Walk(0x5000, pci.DirToDevice)
	if !errors.As(err, &f) || f.Reason != FaultPermission {
		t.Errorf("perm walk fault = %v, want permission", err)
	}
	if f.Error() == "" {
		t.Error("empty fault message")
	}

	// Reserved: out of the 48-bit range.
	_, _, err = s.Walk(MaxIOVA, pci.DirToDevice)
	if !errors.As(err, &f) || f.Reason != FaultReserved {
		t.Errorf("reserved walk fault = %v, want reserved", err)
	}
}

func TestMapValidation(t *testing.T) {
	s, mm, _ := newSpace(t, true)
	target, _ := mm.AllocFrame()

	if err := s.Map(0x1001, target, pci.DirBidi); err == nil {
		t.Error("unaligned Map should fail")
	}
	if err := s.Map(MaxIOVA, target, pci.DirBidi); err == nil {
		t.Error("out-of-range Map should fail")
	}
	if err := s.Map(0x1000, target, pci.DirNone); err == nil {
		t.Error("Map with no permissions should fail")
	}
	if err := s.Map(0x1000, target, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x1000, target, pci.DirBidi); err == nil {
		t.Error("double Map should fail")
	}
}

func TestUnmapValidation(t *testing.T) {
	s, _, _ := newSpace(t, true)
	if err := s.Unmap(0x2000); err == nil {
		t.Error("Unmap of unmapped IOVA should fail")
	}
	if err := s.Unmap(MaxIOVA); err == nil {
		t.Error("Unmap out of range should fail")
	}
	if err := s.Unmap(0x2001); err == nil {
		t.Error("Unmap unaligned should fail")
	}
}

func TestDirectionalPermissions(t *testing.T) {
	s, mm, _ := newSpace(t, true)
	tx, _ := mm.AllocFrame()
	rx, _ := mm.AllocFrame()

	if err := s.Map(0x10000, tx, pci.DirToDevice); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x11000, rx, pci.DirFromDevice); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Walk(0x10000, pci.DirToDevice); err != nil {
		t.Errorf("Tx walk on Tx mapping: %v", err)
	}
	if _, _, err := s.Walk(0x10000, pci.DirFromDevice); err == nil {
		t.Error("Rx walk on Tx mapping should fault")
	}
	if _, _, err := s.Walk(0x11000, pci.DirFromDevice); err != nil {
		t.Errorf("Rx walk on Rx mapping: %v", err)
	}
	if _, _, err := s.Walk(0x11000, pci.DirToDevice); err == nil {
		t.Error("Tx walk on Rx mapping should fault")
	}
}

func TestPageGranularitySharing(t *testing.T) {
	// Two "buffers" on the same page: baseline protection is page-granular
	// (§4) — unmapping is per page, so the whole page goes at once, and a
	// walk to any offset in a mapped page succeeds. This is the imprecision
	// rIOMMU eliminates; here we document the baseline behaviour.
	s, mm, _ := newSpace(t, true)
	target, _ := mm.AllocFrame()
	if err := s.Map(0x20000, target, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Walk(0x20000+100, pci.DirFromDevice); err != nil {
		t.Errorf("offset 100: %v", err)
	}
	if _, _, err := s.Walk(0x20000+3000, pci.DirFromDevice); err != nil {
		t.Errorf("offset 3000 (second buffer on same page): %v", err)
	}
}

func TestIncoherentCostsMore(t *testing.T) {
	sInc, mmI, clkI := newSpace(t, false)
	sCoh, mmC, clkC := newSpace(t, true)
	fi, _ := mmI.AllocFrame()
	fc, _ := mmC.AllocFrame()

	if err := sInc.Map(0x3000, fi, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	if err := sCoh.Map(0x3000, fc, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	inc := clkI.Total(cycles.MapPageTable)
	coh := clkC.Total(cycles.MapPageTable)
	if inc <= coh {
		t.Errorf("incoherent map cost %d should exceed coherent %d", inc, coh)
	}
}

func TestMapCostCountsOneOperation(t *testing.T) {
	s, mm, clk := newSpace(t, false)
	f, _ := mm.AllocFrame()
	if err := s.Map(0x4000, f, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	if got := clk.Count(cycles.MapPageTable); got != 1 {
		t.Errorf("map charged %d operations, want 1", got)
	}
	if err := s.Unmap(0x4000); err != nil {
		t.Fatal(err)
	}
	if got := clk.Count(cycles.UnmapPageTable); got != 1 {
		t.Errorf("unmap charged %d operations, want 1", got)
	}
}

// Property: an arbitrary interleaving of maps/unmaps agrees with a shadow map.
func TestShadowConsistencyProperty(t *testing.T) {
	prop := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mm := mustMem(t, 2048*mem.PageSize)
		clk := &cycles.Clock{}
		model := cycles.DefaultModel()
		s, err := NewSpace(mm, clk, &model, false)
		if err != nil {
			return false
		}
		target, _ := mm.AllocFrame()
		shadow := map[uint64]bool{}
		iovas := make([]uint64, 32)
		for i := range iovas {
			iovas[i] = uint64(rng.Intn(1<<24)) << mem.PageShift
		}
		for op := 0; op < int(nops); op++ {
			iova := iovas[rng.Intn(len(iovas))]
			if shadow[iova] {
				if err := s.Unmap(iova); err != nil {
					return false
				}
				delete(shadow, iova)
			} else {
				if err := s.Map(iova, target, pci.DirBidi); err != nil {
					return false
				}
				shadow[iova] = true
			}
		}
		// Verify every tracked IOVA agrees with the hardware walk.
		for _, iova := range iovas {
			_, _, err := s.Walk(iova, pci.DirFromDevice)
			if shadow[iova] != (err == nil) {
				return false
			}
		}
		if s.Mapped() != len(shadow) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyAttachLookup(t *testing.T) {
	mm := mustMem(t, 1024*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()

	h, err := NewHierarchy(mm)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := NewSpace(mm, clk, &model, true)
	s2, _ := NewSpace(mm, clk, &model, true)
	d1 := pci.NewBDF(0, 3, 0)
	d2 := pci.NewBDF(0, 3, 1) // same bus, shares context table
	d3 := pci.NewBDF(5, 0, 0)

	if err := h.Attach(d1, s1); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(d2, s2); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(d3, s1); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(d1, s2); err == nil {
		t.Error("duplicate attach should fail")
	}

	got, err := h.Lookup(d1)
	if err != nil || got != s1 {
		t.Errorf("Lookup(d1) = %v, %v; want s1", got, err)
	}
	got, err = h.Lookup(d2)
	if err != nil || got != s2 {
		t.Errorf("Lookup(d2) = %v, %v; want s2", got, err)
	}
	if _, err := h.Lookup(pci.NewBDF(9, 0, 0)); err == nil {
		t.Error("Lookup of unattached bus should fail")
	}
	if _, err := h.Lookup(pci.NewBDF(0, 4, 0)); err == nil {
		t.Error("Lookup of unattached devfn should fail")
	}

	if err := h.Detach(d2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Lookup(d2); err == nil {
		t.Error("Lookup after Detach should fail")
	}
	if err := h.Detach(d2); err == nil {
		t.Error("double Detach should fail")
	}
	if h.Space(d1) != s1 {
		t.Error("Space(d1) != s1")
	}
}
