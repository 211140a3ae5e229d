package baseline

import (
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

var dev = pci.NewBDF(0, 3, 0)

func setup(t *testing.T, mode Mode) (*Driver, *iommu.IOMMU, *mem.PhysMem, *cycles.Clock) {
	t.Helper()
	mm := mustMem(t, 4096*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, err := pagetable.NewHierarchy(mm)
	if err != nil {
		t.Fatal(err)
	}
	hw := iommu.New(clk, &model, hier, 0)
	d, err := New(mode, clk, &model, mm, hw, dev, false)
	if err != nil {
		t.Fatal(err)
	}
	return d, hw, mm, clk
}

func allocBuffer(t *testing.T, mm *mem.PhysMem) mem.PA {
	t.Helper()
	f, err := mm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	return f.PA()
}

func TestMapTranslateUnmap(t *testing.T) {
	d, hw, mm, _ := setup(t, Strict)
	pa := allocBuffer(t, mm) + 256 // unaligned buffer

	iovaAddr, err := d.Map(0, pa, 1500, pci.DirFromDevice)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if iovaAddr&mem.PageMask != 256 {
		t.Errorf("IOVA page offset = %#x, want 0x100 (preserved)", iovaAddr&mem.PageMask)
	}
	got, err := hw.Translate(dev, iovaAddr, 1500, pci.DirFromDevice)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if got != pa {
		t.Errorf("Translate = %#x, want %#x", got, pa)
	}
	// Second translation hits the IOTLB.
	if _, err := hw.Translate(dev, iovaAddr, 1500, pci.DirFromDevice); err != nil {
		t.Fatal(err)
	}
	s := hw.TLB().Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("IOTLB stats = %+v, want 1 hit / 1 miss", s)
	}

	if err := d.Unmap(0, iovaAddr, 1500, true); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if _, err := hw.Translate(dev, iovaAddr, 1500, pci.DirFromDevice); err == nil {
		t.Fatal("strict mode: translation after unmap must fault")
	}
	if d.Live() != 0 {
		t.Errorf("Live = %d", d.Live())
	}
}

func TestMapPinsBuffer(t *testing.T) {
	d, _, mm, _ := setup(t, Strict)
	pa := allocBuffer(t, mm)

	iovaAddr, err := d.Map(0, pa, 100, pci.DirToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Pinned(pa) {
		t.Error("buffer not pinned while mapped")
	}
	if err := d.Unmap(0, iovaAddr, 100, true); err != nil {
		t.Fatal(err)
	}
	if mm.Pinned(pa) {
		t.Error("buffer still pinned after unmap")
	}
}

func TestPermissionEnforced(t *testing.T) {
	d, hw, mm, _ := setup(t, Strict)
	pa := allocBuffer(t, mm)
	iovaAddr, err := d.Map(0, pa, 64, pci.DirToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Translate(dev, iovaAddr, 64, pci.DirFromDevice); err == nil {
		t.Error("device write through a to-device-only mapping must fault")
	}
	// Also when the translation is already cached (hit path).
	if _, err := hw.Translate(dev, iovaAddr, 64, pci.DirToDevice); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Translate(dev, iovaAddr, 64, pci.DirFromDevice); err == nil {
		t.Error("cached-entry permission check missing")
	}
}

func TestMultiPageBuffer(t *testing.T) {
	d, hw, mm, _ := setup(t, Strict)
	f, err := mm.AllocFrames(2)
	if err != nil {
		t.Fatal(err)
	}
	pa := f.PA() + 3000 // spans into the second page with size 2000

	iovaAddr, err := d.Map(0, pa, 2000, pci.DirBidi)
	if err != nil {
		t.Fatal(err)
	}
	// Translate a piece on each page.
	p1, err := hw.Translate(dev, iovaAddr, 1000, pci.DirFromDevice)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := hw.Translate(dev, iovaAddr+1096+1000-1000, 64, pci.DirFromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != pa {
		t.Errorf("first piece = %#x, want %#x", p1, pa)
	}
	if p2 != pa+1096 {
		t.Errorf("second piece = %#x, want %#x", p2, pa+1096)
	}
	if err := d.Unmap(0, iovaAddr, 2000, true); err != nil {
		t.Fatal(err)
	}
	if mm.Pinned(pa) || mm.Pinned(pa+2000-1) {
		t.Error("pages still pinned")
	}
}

func TestDeferStaleWindow(t *testing.T) {
	d, hw, mm, _ := setup(t, Defer)
	pa := allocBuffer(t, mm)
	iovaAddr, err := d.Map(0, pa, 64, pci.DirFromDevice)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the IOTLB, then unmap without reaching the flush batch.
	if _, err := hw.Translate(dev, iovaAddr, 64, pci.DirFromDevice); err != nil {
		t.Fatal(err)
	}
	if err := d.Unmap(0, iovaAddr, 64, true); err != nil {
		t.Fatal(err)
	}
	// The vulnerability: the stale IOTLB entry still serves the translation.
	if _, err := hw.Translate(dev, iovaAddr, 64, pci.DirFromDevice); err != nil {
		t.Fatalf("deferred mode should expose the stale window, got fault: %v", err)
	}
	if hw.TLB().Stats().StaleLookups != 1 {
		t.Errorf("StaleLookups = %d, want 1", hw.TLB().Stats().StaleLookups)
	}
	// After the forced flush the window closes.
	if err := d.FlushPending(); err != nil {
		t.Fatalf("FlushPending: %v", err)
	}
	if _, err := hw.Translate(dev, iovaAddr, 64, pci.DirFromDevice); err == nil {
		t.Error("translation must fault after the deferred flush")
	}
}

func TestDeferBatchFlush(t *testing.T) {
	d, hw, mm, _ := setup(t, DeferPlus)
	pa := allocBuffer(t, mm)

	for i := 0; i < DeferBatch; i++ {
		iovaAddr, err := d.Map(0, pa, 64, pci.DirFromDevice)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Unmap(0, iovaAddr, 64, false); err != nil {
			t.Fatal(err)
		}
		wantPending := (i + 1) % DeferBatch
		if got := d.PendingInvalidations(); got != wantPending {
			t.Fatalf("after %d unmaps PendingInvalidations = %d, want %d", i+1, got, wantPending)
		}
	}
	if hw.TLB().Stats().GlobalFlush != 1 {
		t.Errorf("GlobalFlush = %d, want exactly 1 after %d unmaps", hw.TLB().Stats().GlobalFlush, DeferBatch)
	}
}

func TestStrictCostBreakdown(t *testing.T) {
	// The strict-mode unmap must be dominated by the IOTLB invalidation
	// (Table 1: 2,127 of ~3,000 cycles), and defer must eliminate it.
	dS, _, mmS, clkS := setup(t, Strict)
	pa := allocBuffer(t, mmS)
	iovaAddr, _ := dS.Map(0, pa, 64, pci.DirFromDevice)
	clkS.Reset()
	if err := dS.Unmap(0, iovaAddr, 64, true); err != nil {
		t.Fatal(err)
	}
	if got := clkS.Total(cycles.UnmapIOTLBInv); got != 2127 {
		t.Errorf("strict unmap IOTLB inv = %d cycles, want 2127", got)
	}

	dD, _, mmD, clkD := setup(t, Defer)
	pa2 := allocBuffer(t, mmD)
	iova2, _ := dD.Map(0, pa2, 64, pci.DirFromDevice)
	clkD.Reset()
	if err := dD.Unmap(0, iova2, 64, true); err != nil {
		t.Fatal(err)
	}
	if got := clkD.Total(cycles.UnmapIOTLBInv); got != 9 {
		t.Errorf("defer unmap IOTLB inv = %d cycles, want 9", got)
	}
}

func TestUnmapErrors(t *testing.T) {
	d, _, mm, _ := setup(t, Strict)
	if err := d.Unmap(0, 0x5000, 64, true); err == nil {
		t.Error("unmap of never-mapped IOVA should fail")
	}
	if err := d.Unmap(0, 0x5000, 0, true); err == nil {
		t.Error("unmap of zero size should fail")
	}
	pa := allocBuffer(t, mm)
	if _, err := d.Map(0, pa, 0, pci.DirBidi); err == nil {
		t.Error("map of zero size should fail")
	}
	iovaAddr, _ := d.Map(0, pa, 64, pci.DirBidi)
	if err := d.Unmap(0, iovaAddr, 64, true); err != nil {
		t.Fatal(err)
	}
	if err := d.Unmap(0, iovaAddr, 64, true); err == nil {
		t.Error("double unmap should fail")
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		Strict: "strict", StrictPlus: "strict+",
		Defer: "defer", DeferPlus: "defer+",
		Mode(9): "mode(9)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
	if Strict.Deferred() || StrictPlus.Deferred() {
		t.Error("strict modes report Deferred")
	}
	if !Defer.Deferred() || !DeferPlus.Deferred() {
		t.Error("deferred modes do not report Deferred")
	}
}

func TestPlusModesUseConstAllocator(t *testing.T) {
	d, _, mm, clk := setup(t, StrictPlus)
	pa := allocBuffer(t, mm)
	// Warm the free list, then verify steady-state alloc cost is flat.
	v, _ := d.Map(0, pa, 64, pci.DirBidi)
	if err := d.Unmap(0, v, 64, true); err != nil {
		t.Fatal(err)
	}
	clk.Reset()
	v, _ = d.Map(0, pa, 64, pci.DirBidi)
	model := cycles.DefaultModel()
	if got := clk.Total(cycles.MapIOVAAlloc); got != model.FreelistOp*2 {
		t.Errorf("strict+ alloc = %d cycles, want constant %d", got, model.FreelistOp*2)
	}
	if err := d.Unmap(0, v, 64, true); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityTranslator(t *testing.T) {
	var id iommu.Identity
	pa, err := id.Translate(dev, 0x1234, 64, pci.DirFromDevice)
	if err != nil || pa != 0x1234 {
		t.Errorf("Identity.Translate = %#x, %v", pa, err)
	}
}

func TestHWptPassThrough(t *testing.T) {
	_, hw, _, _ := setup(t, Strict)
	hw.PassThrough = true
	pa, err := hw.Translate(dev, 0x9000, 64, pci.DirFromDevice)
	if err != nil || pa != 0x9000 {
		t.Errorf("HWpt Translate = %#x, %v", pa, err)
	}
	// HWpt bypasses the IOTLB entirely.
	if s := hw.TLB().Stats(); s.Hits+s.Misses != 0 {
		t.Errorf("HWpt consulted the IOTLB: %+v", s)
	}
}

func TestTranslateRejectsPageCrossing(t *testing.T) {
	_, hw, _, _ := setup(t, Strict)
	if _, err := hw.Translate(dev, 0xff0, 32, pci.DirFromDevice); err == nil {
		t.Error("page-crossing access should be rejected (DMA engine splits)")
	}
	if _, err := hw.Translate(dev, 0x1000, 0, pci.DirFromDevice); err == nil {
		t.Error("zero-size access should be rejected")
	}
}
