package audit

import (
	"math/rand"
	"reflect"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// compactOracle is the oracle with its tombstones kept as they were before
// the per-device records: one slice per device, appended on every retire
// and copied into a fresh slice of its newest retiredCap entries when it
// reaches 2*retiredCap. It
// shares the Oracle's live index and live-hit verdicts and judges misses
// against its own slices, so any divergence between the two is the
// tombstone window's.
type compactOracle struct {
	*Oracle
	retired map[pci.BDF][]Retired
}

func newCompactOracle(clk *cycles.Clock) *compactOracle {
	return &compactOracle{Oracle: NewOracle("strict", clk), retired: make(map[pci.BDF][]Retired)}
}

func (o *compactOracle) OnMap(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	if old, _ := o.base(o.lookup(bdf), iova); old >= 0 {
		o.retireCompact(bdf, *o.rec(old))
	}
	o.Oracle.OnMap(bdf, iova, pa, size, dir)
}

func (o *compactOracle) OnUnmap(bdf pci.BDF, iova uint64) {
	if m, _ := o.base(o.lookup(bdf), iova); m >= 0 {
		o.retireCompact(bdf, *o.rec(m))
	}
	o.Oracle.OnUnmap(bdf, iova)
}

func (o *compactOracle) retireCompact(bdf pci.BDF, m Mapping) {
	r := append(o.retired[bdf], Retired{Mapping: m, UnmapCycle: o.clk.Now()})
	if len(r) >= 2*retiredCap {
		r = append(r[:0:0], r[len(r)-retiredCap:]...)
	}
	o.retired[bdf] = r
}

func (o *compactOracle) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	if o.find(o.lookup(bdf), iova) != nil {
		o.Oracle.VerifyDMA(bdf, iova, pa, size, dir)
		return
	}
	o.Checked++
	r := o.retired[bdf]
	for i := len(r) - 1; i >= 0; i-- {
		if iova >= r[i].IOVA && iova < r[i].IOVA+uint64(r[i].Size) {
			o.violate(Violation{
				Reason: ReasonStale, BDF: bdf, IOVA: iova, Size: size, Dir: dir,
				StaleCycles: o.clk.Now() - r[i].UnmapCycle,
			})
			return
		}
	}
	o.violate(Violation{Reason: ReasonUnmapped, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
}

func (o *compactOracle) RecentRetired(bdf pci.BDF, n int) []Retired {
	r := o.retired[bdf]
	if n > len(r) {
		n = len(r)
	}
	out := make([]Retired, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r[len(r)-1-i])
	}
	return out
}

// TestTombstoneWindowMatchesCompactingSlice drives the oracle and the
// compacting-slice reference with the same seeded Rx-ring churn on two
// interleaved devices, through more than three compactions each, and
// requires identical verdicts, counters, events (StaleCycles included) and
// tombstones. Most checks land on a tombstone 1,000 to 2,047 retires back,
// where the window's exact length decides stale against unmapped.
func TestTombstoneWindowMatchesCompactingSlice(t *testing.T) {
	devs := []pci.BDF{pci.NewBDF(0, 3, 0), pci.NewBDF(0, 4, 0)}
	const (
		ringLen = 512  // live buffers per device
		slots   = 4096 // IOVA pages per device: a page is mapped again only after its tombstone left every window
	)
	seeds, steps := 2, 30000
	if testing.Short() {
		seeds = 1
	}
	type dev struct {
		next    int       // buffers mapped so far; buffer j lives on page j%slots
		live    []int     // live buffers, oldest first
		retired []Mapping // every retired mapping, oldest first
		size    [slots]uint32
		pa      [slots]mem.PA
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &cycles.Clock{}
		got, want := NewOracle("strict", clk), newCompactOracle(clk)
		state := make([]dev, len(devs))
		iovaOf := func(d, j int) uint64 { return uint64(d+1)<<32 + uint64(j%slots)<<mem.PageShift }
		mapBuf := func(d, j int) {
			s := &state[d]
			size := uint32(1 + rng.Intn(mem.PageSize))
			if rng.Intn(64) == 0 {
				size = 0
			}
			pa := mem.PA(rng.Intn(1<<20)) << mem.PageShift
			got.OnMap(devs[d], iovaOf(d, j), pa, size, pci.DirBidi)
			want.OnMap(devs[d], iovaOf(d, j), pa, size, pci.DirBidi)
			s.size[j%slots], s.pa[j%slots] = size, pa
		}
		retireBuf := func(d, j int) {
			s := &state[d]
			s.retired = append(s.retired, Mapping{IOVA: iovaOf(d, j), Size: s.size[j%slots]})
		}
		for step := 0; step < steps; step++ {
			clk.Charge(cycles.Recovery, uint64(rng.Intn(1000)))
			d := rng.Intn(len(devs))
			s := &state[d]
			switch r := rng.Intn(100); {
			case r < 45: // rotate the ring: retire the oldest buffer, map a new one
				if len(s.live) == ringLen {
					retireBuf(d, s.live[0])
					got.OnUnmap(devs[d], iovaOf(d, s.live[0]))
					want.OnUnmap(devs[d], iovaOf(d, s.live[0]))
					s.live = s.live[1:]
				}
				mapBuf(d, s.next)
				s.live = append(s.live, s.next)
				s.next++
			case r < 48 && len(s.live) > 0: // remap a live base: recovery lost its unmap
				j := s.live[rng.Intn(len(s.live))]
				retireBuf(d, j)
				mapBuf(d, j)
			case r < 50: // unmap of a base never mapped
				got.OnUnmap(devs[d], iovaOf(d, 0)+0x800)
				want.OnUnmap(devs[d], iovaOf(d, 0)+0x800)
			default: // a DMA chunk on a tombstone, a live buffer, or nothing
				var iova uint64
				pa := mem.PA(rng.Intn(1 << 30))
				switch k := rng.Intn(100); {
				case k < 70 && len(s.retired) > 0:
					back := 1000 + rng.Intn(2*retiredCap-1000)
					if k < 15 {
						back = rng.Intn(1000)
					}
					back = min(back, len(s.retired)-1)
					m := s.retired[len(s.retired)-1-back]
					iova = m.IOVA + uint64(rng.Intn(int(max(m.Size, 1))))
				case k < 90 && len(s.live) > 0:
					j := s.live[rng.Intn(len(s.live))]
					off := uint64(rng.Intn(int(max(s.size[j%slots], 1))))
					iova, pa = iovaOf(d, j)+off, s.pa[j%slots]+mem.PA(off)
				default:
					iova = 0x7000_0000 + uint64(rng.Intn(1<<20))
				}
				size := uint32(1 + rng.Int63n(int64(min(mem.PageSize-iova&mem.PageMask, 256))))
				got.VerifyDMA(devs[d], iova, pa, size, pci.DirFromDevice)
				want.VerifyDMA(devs[d], iova, pa, size, pci.DirFromDevice)
			}
			compareOracles(t, seed, step, got, want.Oracle)
			// Every violation is compared, not only the first maxEvents.
			got.Events, want.Events = got.Events[:0], want.Events[:0]
			if n := len(want.retired[devs[d]]); step%256 == 0 || n == retiredCap || n == 2*retiredCap-1 {
				for _, dev := range devs {
					if g, w := got.RecentRetired(dev, 2*retiredCap), want.RecentRetired(dev, 2*retiredCap); !reflect.DeepEqual(g, w) {
						t.Fatalf("seed %d step %d: %s holds %d tombstones, compacting slice %d", seed, step, dev, len(g), len(w))
					}
				}
			}
		}
		for d, dev := range devs {
			if n := len(state[d].retired); n < 2*retiredCap+3*retiredCap {
				t.Fatalf("seed %d: %s retired %d mappings, too few for three compactions", seed, dev, n)
			}
		}
		if got.ByReason[ReasonStale] == 0 || got.ByReason[ReasonUnmapped] == 0 {
			t.Fatalf("seed %d: checks never split stale from unmapped: %v", seed, got.ByReason)
		}
	}
}
