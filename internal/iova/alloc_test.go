package iova

import (
	"math/rand"
	"testing"
	"testing/quick"

	"riommu/internal/cycles"
)

func newLinux() (*LinuxAllocator, *cycles.Clock) {
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	return NewLinux(clk, &model, DMA32PFN-1), clk
}

func newConst() (*ConstAllocator, *cycles.Clock) {
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	return NewConst(clk, &model, DMA32PFN-1), clk
}

// allocators under test, for table-driven shared behaviour.
func eachAllocator(t *testing.T, f func(t *testing.T, name string, a Allocator)) {
	t.Helper()
	la, _ := newLinux()
	ca, _ := newConst()
	for _, tc := range []struct {
		name string
		a    Allocator
	}{{"linux", la}, {"const", ca}} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.name, tc.a) })
	}
}

func TestAllocBasics(t *testing.T) {
	eachAllocator(t, func(t *testing.T, name string, a Allocator) {
		p1, err := a.Alloc(1)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		p2, err := a.Alloc(1)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if p1 == p2 {
			t.Fatal("duplicate IOVA")
		}
		if !a.Contains(p1) || !a.Contains(p2) {
			t.Error("Contains false for live allocation")
		}
		if a.Live() != 2 {
			t.Errorf("Live = %d", a.Live())
		}
		if err := a.Free(p1); err != nil {
			t.Fatalf("Free: %v", err)
		}
		if a.Contains(p1) {
			t.Error("Contains true after free")
		}
		if a.Live() != 1 {
			t.Errorf("Live = %d after free", a.Live())
		}
		if err := a.Free(p1); err == nil {
			t.Error("double free should fail")
		}
		if _, err := a.Alloc(0); err == nil {
			t.Error("zero-size alloc should fail")
		}
	})
}

func TestAllocTopDown(t *testing.T) {
	a, _ := newLinux()
	p1, _ := a.Alloc(1)
	p2, _ := a.Alloc(1)
	if p1 != DMA32PFN-1 {
		t.Errorf("first alloc = %#x, want top of space %#x", p1, DMA32PFN-1)
	}
	if p2 != p1-1 {
		t.Errorf("second alloc = %#x, want just below first", p2)
	}
}

func TestAllocMultiPage(t *testing.T) {
	eachAllocator(t, func(t *testing.T, name string, a Allocator) {
		p, err := a.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		// Every page of the range is contained; the range is reported once.
		for i := uint64(0); i < 8; i++ {
			if !a.Contains(p + i) {
				t.Fatalf("page %d of multipage range not contained", i)
			}
		}
		q, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		if q >= p && q < p+8 {
			t.Fatalf("overlap: %#x within [%#x,%#x)", q, p, p+8)
		}
		// Freeing by interior page releases the whole range.
		if err := a.Free(p + 3); err != nil {
			t.Fatal(err)
		}
		if a.Contains(p) {
			t.Error("range alive after free via interior page")
		}
	})
}

func TestLinuxReusesFreedSpace(t *testing.T) {
	a, _ := newLinux()
	var pfns []uint64
	for i := 0; i < 100; i++ {
		p, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, p)
	}
	for _, p := range pfns {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d", a.Live())
	}
	// The space must be fully reusable.
	p, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if p != DMA32PFN-1 {
		t.Errorf("after full drain, alloc = %#x, want top", p)
	}
}

func TestConstRecyclesSameRange(t *testing.T) {
	a, _ := newConst()
	p, _ := a.Alloc(1)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	q, _ := a.Alloc(1)
	if q != p {
		t.Errorf("recycled alloc = %#x, want %#x (LIFO reuse)", q, p)
	}
	if a.TreeSize() != 1 {
		t.Errorf("TreeSize = %d, want 1 (node retained)", a.TreeSize())
	}
}

func TestConstFreeListPerSize(t *testing.T) {
	a, _ := newConst()
	p1, _ := a.Alloc(1)
	p4, _ := a.Alloc(4)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p4); err != nil {
		t.Fatal(err)
	}
	// A 4-page alloc must get the 4-page recycled range, not the 1-page one.
	q, _ := a.Alloc(4)
	if q != p4 {
		t.Errorf("4-page alloc = %#x, want recycled %#x", q, p4)
	}
}

func TestLinuxExhaustion(t *testing.T) {
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	a := NewLinux(clk, &model, 8) // tiny space: pfns 1..8
	var got []uint64
	for {
		p, err := a.Alloc(2)
		if err != nil {
			break
		}
		got = append(got, p)
	}
	if len(got) != 4 {
		t.Errorf("allocated %d two-page ranges from 8 pfns, want 4", len(got))
	}
	if err := a.Free(got[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(2); err != nil {
		t.Errorf("alloc after free should succeed: %v", err)
	}
}

// TestLinuxBitmapBounded fills a space whose depth is not a power-of-two
// number of bitmap words: the bitmaps grow to the page above StartPFN and
// no further.
func TestLinuxBitmapBounded(t *testing.T) {
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	const limit = 1200
	a := NewLinux(clk, &model, limit)
	for {
		if _, err := a.Alloc(1); err != nil {
			break
		}
	}
	if a.Live() != limit {
		t.Fatalf("filled %d pages of %d", a.Live(), limit)
	}
	if want := int((limit-StartPFN)/64) + 1; len(a.covered) != want || len(a.starts) != want {
		t.Errorf("bitmaps hold %d and %d words, want %d", len(a.covered), len(a.starts), want)
	}
}

func TestConstExhaustion(t *testing.T) {
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	a := NewConst(clk, &model, 4)
	for i := 0; i < 4; i++ {
		if _, err := a.Alloc(1); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(1); err == nil {
		t.Error("expected fresh-space exhaustion")
	}
}

// TestLinuxPathology reproduces the paper's §3.2 observation: with a band of
// long-lived allocations at the top of the space (the Rx ring buffers) being
// periodically freed and re-allocated while short-lived allocations (Tx
// buffers) churn below, the cached-node heuristic repeatedly resets high and
// the next allocation walks linearly over the live ranges.
func TestLinuxPathology(t *testing.T) {
	a, _ := newLinux()

	// Rx ring: 2048 long-lived buffers at the top of the space.
	rx := make([]uint64, 2048)
	for i := range rx {
		p, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		rx[i] = p
	}

	// Steady state: interleave Rx recycle (free + re-alloc, as the driver
	// refills its receive ring) with Tx alloc/free bursts.
	var txLive []uint64
	maxVisits := uint64(0)
	for round := 0; round < 50; round++ {
		// Recycle one Rx buffer: resets cached32 into the top band.
		if err := a.Free(rx[round%len(rx)]); err != nil {
			t.Fatal(err)
		}
		p, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		rx[round%len(rx)] = p

		// Tx burst.
		for i := 0; i < 8; i++ {
			p, err := a.Alloc(1)
			if err != nil {
				t.Fatal(err)
			}
			if a.LastAllocVisits > maxVisits {
				maxVisits = a.LastAllocVisits
			}
			txLive = append(txLive, p)
		}
		for _, p := range txLive {
			if err := a.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		txLive = txLive[:0]
	}

	// The pathology: at least one allocation walked a large fraction of the
	// 2048 live Rx ranges.
	if maxVisits < 1000 {
		t.Errorf("max alloc visits = %d; expected linear walks over the ~2048 live ranges", maxVisits)
	}
}

// TestConstIsConstantTime verifies the "+" allocator does not degrade with
// live-set size: allocation visit cost is flat because it never searches.
func TestConstIsConstantTime(t *testing.T) {
	a, clk := newConst()
	for i := 0; i < 4096; i++ {
		if _, err := a.Alloc(1); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: alloc/free with a huge live set; measure per-op cycles.
	p, _ := a.Alloc(1)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	clk.Reset()
	for i := 0; i < 1000; i++ {
		q, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	perAlloc := clk.Snapshot().Average(cycles.MapIOVAAlloc)
	model := cycles.DefaultModel()
	if perAlloc != float64(model.FreelistOp*2) {
		t.Errorf("const alloc = %.0f cycles, want flat %d", perAlloc, model.FreelistOp*2)
	}
}

// Property: arbitrary alloc/free interleavings never produce overlapping
// live ranges, for both allocators.
func TestNoOverlapProperty(t *testing.T) {
	prop := func(seed int64, useConst bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var a Allocator
		if useConst {
			a, _ = newConst()
		} else {
			a, _ = newLinux()
		}
		type rg struct{ lo, hi uint64 }
		live := map[uint64]rg{}
		for op := 0; op < 300; op++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				pages := uint64(rng.Intn(4) + 1)
				p, err := a.Alloc(pages)
				if err != nil {
					return false
				}
				nr := rg{p, p + pages - 1}
				for _, r := range live {
					if nr.lo <= r.hi && r.lo <= nr.hi {
						return false // overlap
					}
				}
				live[p] = nr
			} else {
				for k := range live {
					if err := a.Free(k); err != nil {
						return false
					}
					delete(live, k)
					break
				}
			}
		}
		return a.Live() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllocChargesComponents(t *testing.T) {
	a, clk := newLinux()
	p, _ := a.Alloc(1)
	if clk.Count(cycles.MapIOVAAlloc) != 1 {
		t.Error("Alloc did not charge MapIOVAAlloc")
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if clk.Count(cycles.UnmapIOVAFind) != 1 {
		t.Error("Free did not charge UnmapIOVAFind")
	}
	if clk.Count(cycles.UnmapIOVAFree) != 1 {
		t.Error("Free did not charge UnmapIOVAFree")
	}
}
