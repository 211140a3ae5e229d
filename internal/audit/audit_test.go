package audit

import (
	"reflect"
	"strings"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

var bdf = pci.NewBDF(0, 3, 0)

func newTestOracle() (*Oracle, *cycles.Clock) {
	clk := &cycles.Clock{}
	return NewOracle("strict", clk), clk
}

func TestVerifyInsideLiveMapping(t *testing.T) {
	o, _ := newTestOracle()
	o.OnMap(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirBidi)
	o.VerifyDMA(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirToDevice)
	o.VerifyDMA(bdf, 0x1400, mem.PA(0x8400), 64, pci.DirFromDevice)
	if o.Violations != 0 {
		t.Fatalf("in-bounds accesses flagged: %+v", o.Events)
	}
	if o.Checked != 2 {
		t.Fatalf("Checked = %d, want 2", o.Checked)
	}
}

func TestVerifyClassifiesReasons(t *testing.T) {
	o, clk := newTestOracle()
	o.OnMap(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirToDevice)

	// Wrong direction: the mapping is read-only for the device.
	o.VerifyDMA(bdf, 0x1000, mem.PA(0x8000), 64, pci.DirFromDevice)
	// Bounds: starts inside, runs past the 2048-byte buffer.
	o.VerifyDMA(bdf, 0x1700, mem.PA(0x8700), 512, pci.DirToDevice)
	// PA mismatch: hardware resolved to the wrong frame.
	o.VerifyDMA(bdf, 0x1000, mem.PA(0x9000), 64, pci.DirToDevice)
	// Unmapped: nothing ever lived there.
	o.VerifyDMA(bdf, 0x55000, mem.PA(0x8000), 64, pci.DirToDevice)

	// Stale: unmap, then access the dead range.
	clk.Charge(cycles.Recovery, 100)
	o.OnUnmap(bdf, 0x1000)
	clk.Charge(cycles.Recovery, 400)
	o.VerifyDMA(bdf, 0x1010, mem.PA(0x8010), 64, pci.DirToDevice)

	want := map[string]uint64{
		ReasonDirection: 1, ReasonBounds: 1, ReasonPAMismatch: 1,
		ReasonUnmapped: 1, ReasonStale: 1,
	}
	for r, n := range want {
		if o.ByReason[r] != n {
			t.Errorf("ByReason[%s] = %d, want %d", r, o.ByReason[r], n)
		}
	}
	if o.Violations != 5 {
		t.Errorf("Violations = %d, want 5", o.Violations)
	}
	var stale *Violation
	for i := range o.Events {
		if o.Events[i].Reason == ReasonStale {
			stale = &o.Events[i]
		}
	}
	if stale == nil {
		t.Fatal("no stale-translation event recorded")
	}
	if stale.StaleCycles != 400 {
		t.Errorf("StaleCycles = %d, want 400 (cycles between unmap and access)", stale.StaleCycles)
	}
}

func TestUnmapRetiresAndRemapOverwrites(t *testing.T) {
	o, _ := newTestOracle()
	o.OnMap(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirBidi)
	o.OnUnmap(bdf, 0x1000)
	if o.LiveNow != 0 {
		t.Fatalf("LiveNow = %d after unmap", o.LiveNow)
	}
	// Same IOVA reallocated to a different buffer: the oracle must judge
	// accesses against the new mapping, not the tombstone.
	o.OnMap(bdf, 0x1000, mem.PA(0xA000), 2048, pci.DirBidi)
	o.VerifyDMA(bdf, 0x1000, mem.PA(0xA000), 64, pci.DirToDevice)
	if o.Violations != 0 {
		t.Fatalf("reallocated-IOVA access flagged: %+v", o.Events)
	}
	// A duplicate OnMap (recovery lost the unmap) retires the old mapping
	// instead of leaking it.
	o.OnMap(bdf, 0x1000, mem.PA(0xB000), 2048, pci.DirBidi)
	if o.LiveNow != 1 {
		t.Fatalf("LiveNow = %d after duplicate map, want 1", o.LiveNow)
	}
	if got := len(o.RecentRetired(bdf, 10)); got != 2 {
		t.Fatalf("RecentRetired = %d entries, want 2", got)
	}
}

func TestPassThroughCountsWithoutJudging(t *testing.T) {
	o, _ := newTestOracle()
	o.SetPassThrough(true)
	o.VerifyDMA(bdf, 0xdead000, mem.PA(0xdead000), 64, pci.DirFromDevice)
	if o.Checked != 1 || o.Violations != 0 {
		t.Fatalf("pass-through: Checked=%d Violations=%d, want 1/0", o.Checked, o.Violations)
	}
}

func TestLiveFirstDeterministic(t *testing.T) {
	o, _ := newTestOracle()
	for _, base := range []uint64{0x5000, 0x1000, 0x9000, 0x3000} {
		dir := pci.DirBidi
		if base == 0x3000 || base == 0x9000 {
			dir = pci.DirToDevice
		}
		o.OnMap(bdf, base, mem.PA(base), 512, dir)
	}
	bases := func(ms []Mapping) []uint64 {
		out := []uint64{}
		for _, m := range ms {
			out = append(out, m.IOVA)
		}
		return out
	}
	readOnly := func(m Mapping) bool { return m.Dir == pci.DirToDevice }
	for _, tc := range []struct {
		n    int
		keep func(Mapping) bool
		want []uint64
	}{
		{2, nil, []uint64{0x1000, 0x3000}},
		{4, nil, []uint64{0x1000, 0x3000, 0x5000, 0x9000}},
		{9, nil, []uint64{0x1000, 0x3000, 0x5000, 0x9000}},
		{1, readOnly, []uint64{0x3000}},
		{4, readOnly, []uint64{0x3000, 0x9000}},
		{0, nil, []uint64{}},
	} {
		if got := bases(o.LiveFirst(bdf, tc.n, tc.keep)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("LiveFirst(n=%d, readOnly=%v) = %#x, want %#x", tc.n, tc.keep != nil, got, tc.want)
		}
	}
	if got := o.LiveFirst(pci.NewBDF(0, 9, 0), 4, nil); len(got) != 0 {
		t.Errorf("LiveFirst on a device that never mapped = %+v", got)
	}
}

func TestRetiredHistoryBounded(t *testing.T) {
	o, _ := newTestOracle()
	for i := 0; i < 3*retiredCap; i++ {
		iova := uint64(0x1000 + 0x1000*i)
		o.OnMap(bdf, iova, mem.PA(iova), 512, pci.DirBidi)
		o.OnUnmap(bdf, iova)
	}
	if got := len(o.retired[bdf]); got > retiredCap {
		t.Fatalf("retired history %d exceeds cap %d", got, retiredCap)
	}
	// The newest tombstone is still the most recent unmap.
	last := o.RecentRetired(bdf, 1)
	if len(last) != 1 || last[0].IOVA != uint64(0x1000+0x1000*(3*retiredCap-1)) {
		t.Fatalf("newest tombstone wrong: %+v", last)
	}
}

func TestOracleAccessorsAndStats(t *testing.T) {
	o, _ := newTestOracle()
	if o.Mode() != "strict" {
		t.Errorf("Mode() = %q", o.Mode())
	}
	want := []string{ReasonStale, ReasonUnmapped, ReasonBounds, ReasonDirection, ReasonPAMismatch}
	got := Reasons()
	if len(got) != len(want) {
		t.Fatalf("Reasons() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Reasons()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	o.OnInvalidate(bdf, 0x4000)
	o.OnInvalidate(bdf, 0x5000)
	o.OnFlush()
	if o.InvEntries != 2 || o.InvFlushes != 1 {
		t.Errorf("invalidation stats = %d entries / %d flushes", o.InvEntries, o.InvFlushes)
	}
	// A wild access renders with every field an operator needs to triage it.
	o.VerifyDMA(bdf, 0xdead000, mem.PA(0xdead000), 64, pci.DirFromDevice)
	if o.Violations != 1 || len(o.Events) != 1 {
		t.Fatalf("wild access not flagged: %d violations", o.Violations)
	}
	s := o.Events[0].String()
	for _, frag := range []string{"strict", ReasonUnmapped, "iova=0xdead000", "size=64"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Violation.String() = %q missing %q", s, frag)
		}
	}
}
