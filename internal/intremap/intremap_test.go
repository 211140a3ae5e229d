package intremap

import (
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/pci"
)

func newRemapper(t *testing.T, cfg Config) (*Remapper, *cycles.Clock, *cycles.Clock) {
	t.Helper()
	cpu, dev := &cycles.Clock{}, &cycles.Clock{}
	model := cycles.DefaultModel()
	r, err := New(cfg, cpu, dev, &model)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, cpu, dev
}

func TestTableGeometry(t *testing.T) {
	if _, err := NewTable(-1); err == nil {
		t.Fatal("order -1 accepted")
	}
	if _, err := NewTable(16); err == nil {
		t.Fatal("order 16 accepted")
	}
	tb, err := NewTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Size() != 8 {
		t.Fatalf("size = %d, want 8", tb.Size())
	}
}

func TestAllocLowestFree(t *testing.T) {
	tb, _ := NewTable(3)
	bdf := pci.NewBDF(0, 3, 0)
	for i := 0; i < 4; i++ {
		idx, err := tb.Alloc(bdf, uint8(0x20+i), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("alloc %d landed at %d", i, idx)
		}
	}
	if err := tb.Free(1); err != nil {
		t.Fatal(err)
	}
	idx, err := tb.Alloc(bdf, 0x30, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("reuse landed at %d, want 1", idx)
	}
}

func TestVectorAliasRejected(t *testing.T) {
	tb, _ := NewTable(4)
	a, b := pci.NewBDF(0, 3, 0), pci.NewBDF(0, 4, 0)
	if _, err := tb.Alloc(a, 0x20, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Alloc(a, 0x20, 1, false); err == nil {
		t.Fatal("duplicate (bdf,vector) accepted")
	}
	// A different BDF may reuse the vector number: vectors are per-source.
	if _, err := tb.Alloc(b, 0x20, 0, false); err != nil {
		t.Fatalf("cross-BDF vector reuse rejected: %v", err)
	}
}

func TestTableFull(t *testing.T) {
	tb, _ := NewTable(2)
	bdf := pci.NewBDF(0, 3, 0)
	for i := 0; i < 4; i++ {
		if _, err := tb.Alloc(bdf, uint8(i), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Alloc(bdf, 0x40, 0, false); err == nil {
		t.Fatal("overfull alloc accepted")
	}
}

func TestFreeBDF(t *testing.T) {
	r, _, _ := newRemapper(t, Config{TableOrder: 4})
	a, b := pci.NewBDF(0, 3, 0), pci.NewBDF(0, 4, 0)
	for i := 0; i < 3; i++ {
		if _, err := r.Alloc(a, uint8(i), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Alloc(b, 9, 0, false); err != nil {
		t.Fatal(err)
	}
	tb := r.Table()
	if n := r.FreeBDF(a); n != 3 || tb.Live() != 1 || tb.LiveFor(a) != 0 || tb.LiveFor(b) != 1 {
		t.Fatalf("FreeBDF: freed=%d live=%d", n, tb.Live())
	}
	if st := r.Stats(); st.Frees != 3 {
		t.Fatalf("FreeBDF counted %d frees, want 3", st.Frees)
	}
}

func TestDeliverPaths(t *testing.T) {
	r, cpu, dev := newRemapper(t, Config{TableOrder: 4})
	nic := pci.NewBDF(0, 3, 0)
	evil := pci.NewBDF(0, 6, 0)
	idx, err := r.Alloc(nic, 0x20, 2, false)
	if err != nil {
		t.Fatal(err)
	}

	var got []Delivery
	r.SetSink(func(d Delivery) { got = append(got, d) })

	if o := r.Deliver(nic, idx, 0, 0); o != Delivered {
		t.Fatalf("own vector: %v", o)
	}
	if o := r.Deliver(evil, idx, 0, 0); o != BlockedSourceMismatch {
		t.Fatalf("spoof: %v", o)
	}
	if o := r.Deliver(evil, 13, 0, 0); o != BlockedNotPresent {
		t.Fatalf("unmapped: %v", o)
	}
	if o := r.Deliver(evil, 1000, 0, 0); o != BlockedBadIndex {
		t.Fatalf("bad index: %v", o)
	}
	if len(got) != 1 || got[0].Vector != 0x20 || got[0].Core != 2 {
		t.Fatalf("deliveries: %+v", got)
	}
	st := r.Stats()
	if st.Delivered != 1 || st.Blocked() != 3 || st.CacheMisses == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if cpu.Total(cycles.IntRemap) == 0 || dev.Total(cycles.IntRemap) == 0 {
		t.Fatal("no int-remap cycles charged")
	}
	// Second delivery hits the IEC.
	before := r.Stats().CacheHits
	if o := r.Deliver(nic, idx, 0, 0); o != Delivered {
		t.Fatal("second delivery refused")
	}
	if r.Stats().CacheHits != before+1 {
		t.Fatal("IEC hit not recorded")
	}
}

func TestStrictFreeClosesWindow(t *testing.T) {
	r, _, _ := newRemapper(t, Config{TableOrder: 4})
	nic := pci.NewBDF(0, 3, 0)
	idx, _ := r.Alloc(nic, 0x20, 0, false)
	r.Deliver(nic, idx, 0, 0) // warm the IEC
	if err := r.Free(idx); err != nil {
		t.Fatal(err)
	}
	if o := r.Deliver(nic, idx, 0, 0); o != BlockedNotPresent {
		t.Fatalf("replay after strict free: %v", o)
	}
	if r.Stats().StaleDelivered != 0 {
		t.Fatal("strict mode delivered stale")
	}
}

func TestDeferredFreeLeavesStaleWindow(t *testing.T) {
	r, _, _ := newRemapper(t, Config{TableOrder: 4, DeferredInv: true, DeferBatch: 8})
	nic := pci.NewBDF(0, 3, 0)
	idx, _ := r.Alloc(nic, 0x20, 0, false)
	r.Deliver(nic, idx, 0, 0) // warm the IEC
	if err := r.Free(idx); err != nil {
		t.Fatal(err)
	}
	if r.PendingInvalidations() != 1 {
		t.Fatalf("pending = %d", r.PendingInvalidations())
	}
	// Stale window: the IEC still delivers the freed entry.
	if o := r.Deliver(nic, idx, 0, 0); o != Delivered {
		t.Fatalf("stale replay blocked too early: %v", o)
	}
	if r.Stats().StaleDelivered != 1 {
		t.Fatalf("stale not counted: %+v", r.Stats())
	}
	// The forced flush closes it.
	r.FlushIEC()
	if r.PendingInvalidations() != 0 {
		t.Fatal("flush left queue")
	}
	if o := r.Deliver(nic, idx, 0, 0); o != BlockedNotPresent {
		t.Fatalf("replay after flush: %v", o)
	}
}

func TestDeferredBatchFlush(t *testing.T) {
	r, _, _ := newRemapper(t, Config{TableOrder: 6, DeferredInv: true, DeferBatch: 4})
	nic := pci.NewBDF(0, 3, 0)
	for i := 0; i < 4; i++ {
		idx, err := r.Alloc(nic, uint8(i), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Free(idx); err != nil {
			t.Fatal(err)
		}
	}
	if r.PendingInvalidations() != 0 {
		t.Fatalf("batch did not flush: pending=%d", r.PendingInvalidations())
	}
	if r.Stats().IECGlobalFlushes != 1 {
		t.Fatalf("flushes = %d", r.Stats().IECGlobalFlushes)
	}
}

func TestPassThroughDelivers(t *testing.T) {
	r, _, _ := newRemapper(t, Config{PassThrough: true})
	var got []Delivery
	r.SetSink(func(d Delivery) { got = append(got, d) })
	if o := r.Deliver(pci.NewBDF(0, 3, 0), -1, 0x24, 3); o != Delivered {
		t.Fatalf("pass-through blocked: %v", o)
	}
	if len(got) != 1 || got[0].Vector != 0x24 || got[0].Core != 3 || got[0].Index != -1 {
		t.Fatalf("delivery: %+v", got)
	}
}

func TestSourceLatchAndDrop(t *testing.T) {
	r, _, _ := newRemapper(t, Config{TableOrder: 4})
	nic := pci.NewBDF(0, 3, 0)
	src, err := r.NewSource(nic, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delivery
	r.SetSink(func(d Delivery) { got = append(got, d) })

	// Three raises coalesce into one delivery.
	src.RaiseRx()
	src.RaiseRx()
	src.RaiseRx()
	src.FireRx()
	src.FireRx() // nothing pending: no second delivery
	if len(got) != 1 || got[0].Vector != VectorBase || got[0].Core != 1 {
		t.Fatalf("coalesced delivery: %+v", got)
	}

	// Dropped raises never deliver (queue reset semantics).
	src.RaiseTx()
	src.RaiseRx()
	if n := src.Drop(); n != 2 {
		t.Fatalf("Drop = %d", n)
	}
	src.FireRx()
	src.FireTx()
	if len(got) != 1 {
		t.Fatalf("post-drop replay: %+v", got)
	}

	// Close frees the IRTEs and silences the source.
	src.Close()
	src.RaiseRx()
	src.FireRx()
	if len(got) != 1 || r.Table().Live() != 0 {
		t.Fatalf("closed source leaked: live=%d deliveries=%d", r.Table().Live(), len(got))
	}
}

func TestSourceVectorsDistinctAcrossQueues(t *testing.T) {
	r, _, _ := newRemapper(t, Config{TableOrder: 6})
	nic := pci.NewBDF(0, 3, 0)
	seen := map[uint8]bool{}
	for q := 0; q < 4; q++ {
		src, err := r.NewSource(nic, q, q, true)
		if err != nil {
			t.Fatal(err)
		}
		rx, tx := src.Indices()
		for _, idx := range []int{rx, tx} {
			e, ok := r.Table().At(idx)
			if !ok || !e.Present {
				t.Fatalf("queue %d IRTE %d missing", q, idx)
			}
			if seen[e.Vector] {
				t.Fatalf("vector %#x aliased", e.Vector)
			}
			seen[e.Vector] = true
			if !e.Posted || e.DestCore != q {
				t.Fatalf("queue %d entry %+v", q, e)
			}
		}
	}
}
