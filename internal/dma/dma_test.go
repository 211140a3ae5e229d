package dma_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/dma"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

var dev = pci.NewBDF(0, 3, 0)

func identityEngine(t *testing.T) (*dma.Engine, *mem.PhysMem) {
	t.Helper()
	mm := mustMem(t, 64*mem.PageSize)
	return dma.NewEngine(mm, iommu.Identity{}), mm
}

func TestReadWriteIdentity(t *testing.T) {
	e, mm := identityEngine(t)
	f, _ := mm.AllocFrame()
	pa := f.PA()

	data := []byte("hello, dma")
	if err := e.Write(dev, uint64(pa)+16, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(data))
	if err := e.Read(dev, uint64(pa)+16, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("round trip = %q", buf)
	}
	if e.Reads != 1 || e.Writes != 1 || e.Bytes != uint64(2*len(data)) {
		t.Errorf("stats: %d reads %d writes %d bytes", e.Reads, e.Writes, e.Bytes)
	}
}

func TestZeroLength(t *testing.T) {
	e, _ := identityEngine(t)
	if err := e.Read(dev, 0x1000, nil); err == nil {
		t.Error("zero-length read should fail")
	}
	if err := e.Write(dev, 0x1000, nil); err == nil {
		t.Error("zero-length write should fail")
	}
}

func TestU64Accessors(t *testing.T) {
	e, mm := identityEngine(t)
	f, _ := mm.AllocFrame()
	addr := uint64(f.PA()) + 8
	if err := e.WriteU64(dev, addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := e.ReadU64(dev, addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Errorf("ReadU64 = %#x", v)
	}
	// Must agree with the memory's own little-endian view.
	m, err := mm.ReadU64(mem.PA(addr))
	if err != nil {
		t.Fatal(err)
	}
	if m != v {
		t.Errorf("endianness mismatch: %#x vs %#x", m, v)
	}
}

// TestPageBoundarySplit verifies that a transfer spanning pages is split
// into per-page translations, each mapped independently.
func TestPageBoundarySplit(t *testing.T) {
	mm := mustMem(t, 256*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, err := pagetable.NewHierarchy(mm)
	if err != nil {
		t.Fatal(err)
	}
	hw := iommu.New(clk, &model, hier, 0)
	sp, err := pagetable.NewSpace(mm, clk, &model, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.Hierarchy().Attach(dev, sp); err != nil {
		t.Fatal(err)
	}
	// Two discontiguous physical frames mapped at contiguous IOVAs (the
	// frame allocator hands out ascending frames, so skipping one in the
	// middle guarantees discontiguity).
	f1, _ := mm.AllocFrame()
	if _, err := mm.AllocFrame(); err != nil { // hole
		t.Fatal(err)
	}
	f2, _ := mm.AllocFrame()
	if f2 == f1+1 {
		t.Fatal("test setup: frames unexpectedly contiguous")
	}
	if err := sp.Map(0x10000, f1, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	if err := sp.Map(0x11000, f2, pci.DirBidi); err != nil {
		t.Fatal(err)
	}

	e := dma.NewEngine(mm, hw)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i)
	}
	start := uint64(0x10000 + mem.PageSize - 1500)
	if err := e.Write(dev, start, data); err != nil {
		t.Fatalf("spanning write: %v", err)
	}
	got := make([]byte, 3000)
	if err := e.Read(dev, start, got); err != nil {
		t.Fatalf("spanning read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("spanning round trip corrupted")
	}
	// The pieces landed on the right discontiguous frames.
	b1, _ := mm.Read(f1.PA()+mem.PageSize-1500, 1500)
	b2, _ := mm.Read(f2.PA(), 1500)
	if !bytes.Equal(b1, data[:1500]) || !bytes.Equal(b2, data[1500:]) {
		t.Error("pieces landed on wrong frames")
	}

	// A quadword at page offset 4092 splits 4+4 across the same frames.
	const qw = 0x1122334455667788
	if err := e.WriteU64(dev, 0x10000+mem.PageSize-4, qw); err != nil {
		t.Fatalf("spanning WriteU64: %v", err)
	}
	if v, err := e.ReadU64(dev, 0x10000+mem.PageSize-4); err != nil || v != qw {
		t.Errorf("spanning ReadU64 = %#x, %v; want %#x", v, err, uint64(qw))
	}
	lo, _ := mm.Read(f1.PA()+mem.PageSize-4, 4)
	hi, _ := mm.Read(f2.PA(), 4)
	if !bytes.Equal(lo, []byte{0x88, 0x77, 0x66, 0x55}) || !bytes.Equal(hi, []byte{0x44, 0x33, 0x22, 0x11}) {
		t.Errorf("spanning quadword halves = % x | % x", lo, hi)
	}
}

// TestErrantDMABlocked verifies the core protection property: a DMA to an
// unmapped or mis-permissioned IOVA faults and touches no memory.
func TestErrantDMABlocked(t *testing.T) {
	mm := mustMem(t, 256*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, _ := pagetable.NewHierarchy(mm)
	hw := iommu.New(clk, &model, hier, 0)
	sp, _ := pagetable.NewSpace(mm, clk, &model, true)
	if err := hw.Hierarchy().Attach(dev, sp); err != nil {
		t.Fatal(err)
	}
	f, _ := mm.AllocFrame()
	if err := sp.Map(0x20000, f, pci.DirToDevice); err != nil { // read-only for device
		t.Fatal(err)
	}
	e := dma.NewEngine(mm, hw)

	// Unmapped IOVA.
	if err := e.Write(dev, 0x99000, []byte{1}); err == nil {
		t.Error("write to unmapped IOVA must fault")
	}
	// Wrong direction.
	if err := e.Write(dev, 0x20000, []byte{1}); err == nil {
		t.Error("device write through read-only mapping must fault")
	}
	if err := e.Read(dev, 0x20000, make([]byte, 4)); err != nil {
		t.Errorf("permitted read failed: %v", err)
	}
	// Memory unscathed by the blocked write.
	b, _ := mm.Read(f.PA(), 1)
	if b[0] != 0 {
		t.Error("blocked DMA modified memory")
	}
	// Unknown device.
	if err := e.Read(pci.NewBDF(9, 9, 9), 0x20000, make([]byte, 4)); err == nil {
		t.Error("DMA from unattached device must fault")
	}
}

// TestPartialFailureSpanning: if the second page of a spanning transfer is
// unmapped, the first chunk moves but the call reports the fault and counts
// nothing as completed.
func TestPartialFailureSpanning(t *testing.T) {
	mm := mustMem(t, 256*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hier, _ := pagetable.NewHierarchy(mm)
	hw := iommu.New(clk, &model, hier, 0)
	sp, _ := pagetable.NewSpace(mm, clk, &model, true)
	if err := hw.Hierarchy().Attach(dev, sp); err != nil {
		t.Fatal(err)
	}
	f, _ := mm.AllocFrame()
	if err := sp.Map(0x30000, f, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	e := dma.NewEngine(mm, hw)
	start := uint64(0x30000 + mem.PageSize - 4)
	err := e.Write(dev, start, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err == nil {
		t.Fatal("spanning write into unmapped page must fault")
	}
	if b, _ := mm.Read(f.PA()+mem.PageSize-4, 4); !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Errorf("first chunk of the failed write = %v, want it landed", b)
	}
	buf := bytes.Repeat([]byte{0xee}, 8)
	if err := e.Read(dev, start, buf); err == nil {
		t.Fatal("spanning read from unmapped page must fault")
	}
	if !bytes.Equal(buf, []byte{1, 2, 3, 4, 0xee, 0xee, 0xee, 0xee}) {
		t.Errorf("failed read filled %v, want only the first chunk", buf)
	}
	if e.Reads != 0 || e.Writes != 0 || e.Bytes != 0 {
		t.Errorf("failed transfers counted: %d reads %d writes %d bytes", e.Reads, e.Writes, e.Bytes)
	}
}

// chunkRec is one chunk as a translator or auditor saw it.
type chunkRec struct {
	iova uint64
	pa   mem.PA
	size uint32
	dir  pci.Dir
}

// recTranslator maps IOVA base+x to PA x, faulting on one IOVA page, and
// records every chunk it is asked to translate.
type recTranslator struct {
	base, failPage uint64
	seen           []chunkRec
}

func (r *recTranslator) Translate(_ pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	r.seen = append(r.seen, chunkRec{iova, mem.PA(iova - r.base), size, dir})
	if iova>>mem.PageShift == r.failPage {
		return 0, fmt.Errorf("unmapped iova %#x", iova)
	}
	return mem.PA(iova - r.base), nil
}

type recAuditor struct{ seen []chunkRec }

func (a *recAuditor) VerifyDMA(_ pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	a.seen = append(a.seen, chunkRec{iova, pa, size, dir})
}

// TestAuditSeesTranslatedChunks pins the isolation oracle's contract: the
// auditor sees exactly the chunks the translator accepted, in transfer
// order, with the translated IOVA, PA, size and direction, and a fault
// stops translation at its chunk.
func TestAuditSeesTranslatedChunks(t *testing.T) {
	mm := mustMem(t, 64*mem.PageSize)
	pfn, err := mm.AllocFrames(3)
	if err != nil {
		t.Fatal(err)
	}
	const base = 1 << 40
	start := base + uint64(pfn.PA()) + mem.PageSize - 100
	want := []chunkRec{
		{start, pfn.PA() + mem.PageSize - 100, 100, 0},
		{start + 100, (pfn + 1).PA(), mem.PageSize, 0},
		{start + 100 + mem.PageSize, (pfn + 2).PA(), 50, 0},
	}
	for _, dir := range []pci.Dir{pci.DirToDevice, pci.DirFromDevice} {
		for _, fail := range []int{-1, 1} {
			tr := &recTranslator{base: base, failPage: ^uint64(0)}
			if fail >= 0 {
				tr.failPage = want[fail].iova >> mem.PageShift
			}
			aud := &recAuditor{}
			e := dma.NewEngine(mm, tr)
			e.SetAudit(aud)
			buf := make([]byte, 100+mem.PageSize+50)
			if dir == pci.DirToDevice {
				err = e.Read(dev, start, buf)
			} else {
				err = e.Write(dev, start, buf)
			}
			wantTr := append([]chunkRec(nil), want...)
			for i := range wantTr {
				wantTr[i].dir = dir
			}
			wantAud := wantTr
			if fail >= 0 {
				if err == nil {
					t.Errorf("dir %v: fault at chunk %d not reported", dir, fail)
				}
				wantTr, wantAud = wantTr[:fail+1], wantTr[:fail]
			} else if err != nil {
				t.Errorf("dir %v: %v", dir, err)
			}
			if !reflect.DeepEqual(tr.seen, wantTr) {
				t.Errorf("dir %v fail %d: translated %v, want %v", dir, fail, tr.seen, wantTr)
			}
			if !reflect.DeepEqual(aud.seen, wantAud) {
				t.Errorf("dir %v fail %d: audited %v, want %v", dir, fail, aud.seen, wantAud)
			}
		}
	}
}

func TestRouter(t *testing.T) {
	mm := mustMem(t, 64*mem.PageSize)
	r := dma.NewRouter()
	devA := pci.NewBDF(0, 1, 0)
	r.Route(devA, iommu.Identity{})
	e := dma.NewEngine(mm, r)

	f, _ := mm.AllocFrame()
	if err := e.Write(devA, uint64(f.PA()), []byte{1, 2, 3}); err != nil {
		t.Fatalf("routed device: %v", err)
	}
	// Unrouted device: no IOMMU path, the DMA goes nowhere.
	if err := e.Write(pci.NewBDF(0, 2, 0), uint64(f.PA()), []byte{9}); err == nil {
		t.Error("unrouted device's DMA should fail")
	}
	// Memory holds only the routed device's bytes.
	b, _ := mm.Read(f.PA(), 3)
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Errorf("data = %v", b)
	}
}

// TestRouterFallback covers the router plumbing the supervisor and hot-plug
// paths lean on: the default-unit fallback and route save/restore (RouteOf +
// Unroute).
func TestRouterFallback(t *testing.T) {
	mm := mustMem(t, 64*mem.PageSize)
	r := dma.NewRouter()
	devA, devB := pci.NewBDF(0, 1, 0), pci.NewBDF(0, 2, 0)
	r.Route(devA, iommu.Identity{})
	f, _ := mm.AllocFrame()
	iova := uint64(f.PA())

	// Unrouted device with no default faults.
	if _, err := r.Translate(devB, iova, 8, pci.DirFromDevice); err == nil {
		t.Error("unrouted device translates with no default unit")
	}
	// Installing a default unit reroutes the strays.
	r.SetDefault(iommu.Identity{})
	if _, err := r.Translate(devB, iova, 8, pci.DirFromDevice); err != nil {
		t.Errorf("default-routed translate: %v", err)
	}

	// Quarantine shape: save the route, splice a blackhole, restore.
	saved, ok := r.RouteOf(devA)
	if !ok {
		t.Fatal("RouteOf lost the explicit route")
	}
	r.Route(devA, dma.Blackhole{})
	if _, err := r.Translate(devA, iova, 8, pci.DirFromDevice); err == nil {
		t.Error("blackholed device still translates")
	}
	r.Route(devA, saved)
	if _, err := r.Translate(devA, iova, 8, pci.DirFromDevice); err != nil {
		t.Errorf("restored route: %v", err)
	}
	r.Unroute(devA)
	if _, ok := r.RouteOf(devA); ok {
		t.Error("Unroute left the explicit route behind")
	}

	// Engine plumbing: the translator accessor.
	e := dma.NewEngine(mm, r)
	if e.Translator() == nil {
		t.Error("engine lost its translator")
	}
	if e.Faults() != nil {
		t.Error("fresh engine has a fault injector")
	}
	if err := e.Write(devA, iova, []byte{4, 5}); err != nil {
		t.Fatalf("default-routed write: %v", err)
	}
}
