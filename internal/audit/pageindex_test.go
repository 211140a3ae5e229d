package audit

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// scanOracle is the oracle's live-set lookup as it was before the page
// index: one map from base IOVA to mapping per device, a one-entry cache of
// the mapping the previous chunk hit, and a linear scan of the device's
// live set on a cache miss. It shares the Oracle's tombstone history and
// verdict logic, which the index left alone, so any divergence between the
// two is the lookup's.
type scanOracle struct {
	*Oracle
	byBase  map[pci.BDF]map[uint64]*Mapping
	lastBDF pci.BDF
	lastHit *Mapping
}

func newScanOracle(clk *cycles.Clock) *scanOracle {
	return &scanOracle{Oracle: NewOracle("strict", clk), byBase: make(map[pci.BDF]map[uint64]*Mapping)}
}

func (o *scanOracle) OnMap(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	o.Maps++
	dev := o.byBase[bdf]
	if dev == nil {
		dev = make(map[uint64]*Mapping)
		o.byBase[bdf] = dev
	}
	if old, ok := dev[iova]; ok {
		o.retireScan(bdf, old)
		o.LiveNow--
	}
	dev[iova] = &Mapping{BDF: bdf, IOVA: iova, PA: pa, Size: size, Dir: dir, MapCycle: o.clk.Now()}
	o.LiveNow++
	if o.LiveNow > o.LivePeak {
		o.LivePeak = o.LiveNow
	}
}

func (o *scanOracle) OnUnmap(bdf pci.BDF, iova uint64) {
	o.Unmaps++
	dev := o.byBase[bdf]
	m, ok := dev[iova]
	if !ok {
		o.UnmapMisses++
		return
	}
	delete(dev, iova)
	o.LiveNow--
	o.retireScan(bdf, m)
}

func (o *scanOracle) retireScan(bdf pci.BDF, m *Mapping) {
	if m == o.lastHit {
		o.lastHit = nil
	}
	o.device(bdf).retire(m, o.clk.Now())
}

func (o *scanOracle) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	o.Checked++
	if o.passThrough {
		return
	}
	var m *Mapping
	if c := o.lastHit; c != nil && o.lastBDF == bdf && c.contains(iova) {
		m = c
	} else {
		for _, cand := range o.byBase[bdf] {
			if cand.contains(iova) {
				m = cand
				break
			}
		}
		if m != nil {
			o.lastBDF, o.lastHit = bdf, m
		}
	}
	o.judge(o.lookup(bdf), m, bdf, iova, pa, size, dir)
}

// liveSorted copies and sorts the device's whole live set by base IOVA.
func (o *scanOracle) liveSorted(bdf pci.BDF) []Mapping {
	out := []Mapping{}
	for _, m := range o.byBase[bdf] {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IOVA < out[j].IOVA })
	return out
}

// firstSorted is what LiveFirst must return: the first n mappings of the
// sorted scan that keep accepts.
func (o *scanOracle) firstSorted(bdf pci.BDF, n int, keep func(Mapping) bool) []Mapping {
	out := []Mapping{}
	for _, m := range o.liveSorted(bdf) {
		if len(out) < n && (keep == nil || keep(m)) {
			out = append(out, m)
		}
	}
	return out
}

// slot is a byte range a test mapping may occupy. Slots never overlap, so
// the live set never shares a byte, the premise both lookups rest on.
type slot struct {
	base uint64
	cap  uint32
}

// equivSlots lays out the address shapes the drivers produce, plus the
// awkward cases for a page index.
func equivSlots(rng *rand.Rand) []slot {
	var out []slot
	// Baseline mappings spanning 1 to 16 pages, a page apart at least.
	for k := uint64(0); k < 8; k++ {
		out = append(out, slot{0x100000 + k*0x20000, uint32(1+rng.Intn(16)) * mem.PageSize})
	}
	// rIOVA-shaped: offset 0 of successive rentries (rentry<<30).
	for k := uint64(1); k <= 8; k++ {
		out = append(out, slot{k << 30, uint32(1+rng.Intn(64)) << 10})
	}
	// Sub-page neighbours sharing one IOVA page: halves (the hot-attach
	// shape) and quarters.
	out = append(out,
		slot{0xffffc000, 2048}, slot{0xffffc800, 2048},
		slot{0xffffa000, 1024}, slot{0xffffa400, 1024}, slot{0xffffa800, 1024}, slot{0xffffac00, 1024})
	// Multi-page mappings that share their first or last page with a
	// sub-page neighbour.
	out = append(out,
		slot{0x200000, 6144}, slot{0x201800, 2048},
		slot{0x300000, 2048}, slot{0x300800, 4096}, slot{0x301800, 2048})
	return out
}

var equivDirs = []pci.Dir{pci.DirToDevice, pci.DirFromDevice, pci.DirBidi}

// compareOracles fails the test unless the oracle and a test-only
// reference agree on every counter and event.
func compareOracles(t *testing.T, seed int64, step int, got, want *Oracle) {
	t.Helper()
	type counters struct {
		Checked, Violations, Maps, Unmaps, UnmapMisses uint64
		LiveNow, LivePeak                              int
	}
	g := counters{got.Checked, got.Violations, got.Maps, got.Unmaps, got.UnmapMisses, got.LiveNow, got.LivePeak}
	w := counters{want.Checked, want.Violations, want.Maps, want.Unmaps, want.UnmapMisses, want.LiveNow, want.LivePeak}
	if g != w {
		t.Fatalf("seed %d step %d: counters %+v, reference %+v", seed, step, g, w)
	}
	if !reflect.DeepEqual(got.ByReason, want.ByReason) {
		t.Fatalf("seed %d step %d: ByReason %v, reference %v", seed, step, got.ByReason, want.ByReason)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("seed %d step %d: Events differ\n got %+v\nwant %+v", seed, step, got.Events, want.Events)
	}
}

// TestOracleMatchesScanReference drives the page-indexed oracle and the
// scan reference with the same seeded sequences of maps, unmaps and DMA
// checks over two devices, and requires identical verdicts, counters,
// events (StaleCycles included), tombstones and LiveFirst selections.
func TestOracleMatchesScanReference(t *testing.T) {
	devs := []pci.BDF{pci.NewBDF(0, 3, 0), pci.NewBDF(0, 4, 0)}
	readOnly := func(m Mapping) bool { return !m.Dir.Allows(pci.DirFromDevice) }
	seeds, steps := 60, 600
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &cycles.Clock{}
		got, want := NewOracle("strict", clk), newScanOracle(clk)
		slots := equivSlots(rng)
		// mappedPA[d][i] is the PA slot i of device d was last mapped to,
		// so most checks of a live slot translate correctly.
		mappedPA := make([][]mem.PA, len(devs))
		for d := range mappedPA {
			mappedPA[d] = make([]mem.PA, len(slots))
		}
		for step := 0; step < steps; step++ {
			clk.Charge(cycles.Recovery, uint64(rng.Intn(1000)))
			d := rng.Intn(len(devs))
			dev := devs[d]
			i := rng.Intn(len(slots))
			s := slots[i]
			switch r := rng.Intn(100); {
			case r < 35: // map; a live slot makes it a duplicate-base remap
				size := uint32(1 + rng.Intn(int(s.cap)))
				if rng.Intn(50) == 0 {
					size = 0
				}
				pa := mem.PA(rng.Intn(1<<20)) << mem.PageShift
				dir := equivDirs[rng.Intn(len(equivDirs))]
				got.OnMap(dev, s.base, pa, size, dir)
				want.OnMap(dev, s.base, pa, size, dir)
				mappedPA[d][i] = pa
			case r < 55: // unmap a slot's base, or a base never mapped
				iova := s.base
				if rng.Intn(5) == 0 {
					iova += uint64(1 + rng.Intn(int(s.cap)-1))
				}
				got.OnUnmap(dev, iova)
				want.OnUnmap(dev, iova)
			default: // a DMA chunk: in a slot (live, stale or never mapped), or wild
				off := uint64(rng.Intn(int(s.cap)))
				iova := s.base + off
				if rng.Intn(10) == 0 {
					iova = 0x7000_0000 + uint64(rng.Intn(1<<20))
				}
				room := mem.PageSize - iova&mem.PageMask
				size := uint32(1 + rng.Int63n(int64(min(room, 256))))
				pa := mappedPA[d][i] + mem.PA(off)
				if rng.Intn(8) == 0 {
					pa += mem.PageSize
				}
				dir := pci.DirFromDevice
				if rng.Intn(2) == 0 {
					dir = pci.DirToDevice
				}
				got.VerifyDMA(dev, iova, pa, size, dir)
				want.VerifyDMA(dev, iova, pa, size, dir)
			}
			compareOracles(t, seed, step, got, want.Oracle)
			if step%50 == 49 {
				for _, dev := range devs {
					for _, n := range []int{1, 4, len(slots) + 1} {
						for _, keep := range []func(Mapping) bool{nil, readOnly} {
							g, w := got.LiveFirst(dev, n, keep), want.firstSorted(dev, n, keep)
							if len(g) != len(w) || len(g) > 0 && !reflect.DeepEqual(g, w) {
								t.Fatalf("seed %d step %d: LiveFirst(%s, %d) = %+v, sorted scan %+v", seed, step, dev, n, g, w)
							}
						}
					}
				}
			}
		}
		for _, dev := range devs {
			if g, w := got.RecentRetired(dev, 2*retiredCap), want.RecentRetired(dev, 2*retiredCap); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: tombstones of %s differ", seed, dev)
			}
		}
	}
}

// TestLiveFirstMatchesSortedScan files one live set in many shuffled
// orders, with some mappings unmapped midway so shared pages hand their
// slot over, and requires every LiveFirst selection to equal the sorted
// scan's.
func TestLiveFirstMatchesSortedScan(t *testing.T) {
	readOnly := func(m Mapping) bool { return !m.Dir.Allows(pci.DirFromDevice) }
	slots := equivSlots(rand.New(rand.NewSource(7)))
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &cycles.Clock{}
		got, want := NewOracle("strict", clk), newScanOracle(clk)
		for k, i := range rng.Perm(len(slots)) {
			s := slots[i]
			dir := equivDirs[(k+i)%len(equivDirs)]
			got.OnMap(bdf, s.base, mem.PA(s.base), s.cap, dir)
			want.OnMap(bdf, s.base, mem.PA(s.base), s.cap, dir)
			if rng.Intn(4) == 0 {
				gone := slots[rng.Intn(len(slots))].base
				got.OnUnmap(bdf, gone)
				want.OnUnmap(bdf, gone)
			}
		}
		for n := 0; n <= len(slots)+1; n++ {
			for _, keep := range []func(Mapping) bool{nil, readOnly} {
				g, w := got.LiveFirst(bdf, n, keep), want.firstSorted(bdf, n, keep)
				if len(g) != len(w) || len(g) > 0 && !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d: LiveFirst(%d) = %+v, sorted scan %+v", seed, n, g, w)
				}
			}
		}
	}
}

// TestHotplugSharedPage is the case a one-mapping-per-page index loses.
// After a hot attach the fresh driver's allocator maps a 2 KiB Rx buffer at
// 0xffffc000 on 00:03.0 while the detached instance's buffer at 0xffffc800
// is still live: two live mappings, disjoint bytes, one IOVA page. Each
// must stay visible whichever of the two leaves first.
func TestHotplugSharedPage(t *testing.T) {
	const detached, fresh = uint64(0xffffc800), uint64(0xffffc000)
	paOf := map[uint64]mem.PA{detached: 0x20000, fresh: 0x31000}
	for _, order := range [][2]uint64{{detached, fresh}, {fresh, detached}} {
		first, second := order[0], order[1]
		o, _ := newTestOracle()
		o.OnMap(bdf, detached, paOf[detached], 2048, pci.DirFromDevice)
		o.OnMap(bdf, fresh, paOf[fresh], 2048, pci.DirFromDevice)
		for _, b := range []uint64{detached, fresh} {
			o.VerifyDMA(bdf, b+2000, paOf[b]+2000, 48, pci.DirFromDevice)
		}
		if o.Violations != 0 {
			t.Fatalf("both buffers live: %+v", o.Events)
		}
		if got := o.LiveFirst(bdf, 4, nil); len(got) != 2 || got[0].IOVA != fresh || got[1].IOVA != detached {
			t.Fatalf("LiveFirst = %+v, want both buffers in base order", got)
		}

		o.OnUnmap(bdf, first)
		o.VerifyDMA(bdf, second, paOf[second], 64, pci.DirFromDevice)
		if o.Violations != 0 {
			t.Fatalf("unmapping %#x hid %#x: %+v", first, second, o.Events)
		}
		o.VerifyDMA(bdf, first, paOf[first], 64, pci.DirFromDevice)
		o.OnUnmap(bdf, second)
		o.VerifyDMA(bdf, second, paOf[second], 64, pci.DirFromDevice)
		if o.ByReason[ReasonStale] != 2 || o.Violations != 2 {
			t.Fatalf("unmapped buffers: ByReason %v, want 2 stale", o.ByReason)
		}
		if d := o.lookup(bdf); o.LiveNow != 0 || o.UnmapMisses != 0 || d.live.Len() != 0 {
			t.Fatalf("index not empty after both unmaps: LiveNow=%d misses=%d live=%d", o.LiveNow, o.UnmapMisses, d.live.Len())
		}
	}
}
