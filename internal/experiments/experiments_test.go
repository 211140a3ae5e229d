package experiments

import (
	"math"
	"strings"
	"testing"

	"riommu/internal/sim"
)

// within asserts got is within frac (e.g. 0.5 = ±50%) of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	if want == 0 {
		return
	}
	if math.Abs(got-want)/want > frac {
		t.Errorf("%s = %.1f, paper %.1f (outside ±%.0f%%)", name, got, want, frac*100)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	want := []string{"ablations", "bonnie", "figS2", "figure12", "figure7", "figure8", "intremap", "methodology", "misspenalty", "nvme", "pathology", "prefetchers", "scalability", "table1", "table2", "table3"}
	if len(all) != len(want) {
		t.Fatalf("All returns %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete entry", e.ID)
		}
	}
	if _, err := Lookup("table1"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown id should fail")
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := RunTable1(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	strict, strictPlus, deferred := r.At(sim.Strict), r.At(sim.StrictPlus), r.At(sim.Defer)
	// Hard anchors measured directly from hardware in the paper.
	if got := strict.UnmapInv; got != 2127 {
		t.Errorf("strict iotlb inv = %.0f, want 2127", got)
	}
	if got := deferred.UnmapInv; got != 9 {
		t.Errorf("defer iotlb inv = %.0f, want 9", got)
	}
	// Component values within tolerance of Table 1.
	within(t, "strict iova alloc", strict.MapAlloc, 3986, 0.5)
	within(t, "strict+ iova alloc", strictPlus.MapAlloc, 92, 0.05)
	within(t, "strict page table", strict.MapPT, 588, 0.15)
	within(t, "strict iova find", strict.UnmapFind, 249, 0.30)
	within(t, "strict iova free", strict.UnmapFree, 159, 0.15)
	within(t, "strict unmap pt", strict.UnmapPT, 438, 0.15)
	within(t, "strict+ iova find", strictPlus.UnmapFind, 418, 0.40)
	within(t, "defer unmap other", deferred.UnmapOther, 205, 0.25)
	// Structural relations the paper highlights.
	if strict.MapAlloc <= deferred.MapAlloc {
		t.Error("bulk dealloc should reduce the alloc pathology (defer < strict)")
	}
	if strictPlus.UnmapFind <= strict.UnmapFind {
		t.Error("strict+ tree is fuller: its iova find should cost more")
	}
	if out := r.Render(); !strings.Contains(out, "iotlb inv") {
		t.Error("render missing rows")
	}
}

func TestFigure7Shape(t *testing.T) {
	r, err := RunFigure7(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if r.CNone != Figure7PaperCNone {
		t.Errorf("C_none = %.0f, want %.0f", r.CNone, Figure7PaperCNone)
	}
	// The paper's headline: C_strict ≈ 9.4x C_none, C_defer+ ≥ 3.3x.
	strict, none := r.At(sim.Strict), r.At(sim.None)
	ratio := strict.Total / r.CNone
	if ratio < 7 || ratio > 12 {
		t.Errorf("C_strict/C_none = %.1f, want ≈9.4", ratio)
	}
	if r.At(sim.DeferPlus).Total/r.CNone < 2.5 {
		t.Errorf("C_defer+/C_none = %.1f, want ≥ 2.5 (paper 3.3)", r.At(sim.DeferPlus).Total/r.CNone)
	}
	// Strict's invalidation bar dominates its unmap side; none has zero
	// IOMMU components.
	if strict.Inv < 2000 {
		t.Errorf("strict inv component = %.0f", strict.Inv)
	}
	for _, comp := range []float64{none.IOVA, none.PageTable, none.Inv} {
		if comp != 0 {
			t.Error("none mode has IOMMU component cycles")
		}
	}
	if !strings.Contains(r.Render(), "rel. to none") {
		t.Error("render broken")
	}
}

func TestFigure8ModelCoincides(t *testing.T) {
	r, err := RunFigure8(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curve) == 0 || len(r.Sweep) < 4 || len(r.Modes) != 7 {
		t.Fatalf("series sizes: curve=%d sweep=%d modes=%d", len(r.Curve), len(r.Sweep), len(r.Modes))
	}
	// The paper's point: the model coincides with both the busy-wait sweep
	// and the per-mode measurements (within a few percent).
	for _, p := range append(append([]Figure8Point{}, r.Sweep...), r.Modes...) {
		if p.ModelGbs == 0 {
			continue
		}
		if math.Abs(p.MeasuredGbs-p.ModelGbs)/p.ModelGbs > 0.02 {
			t.Errorf("%s: measured %.2f vs model %.2f", p.Label, p.MeasuredGbs, p.ModelGbs)
		}
	}
	// Busy-wait monotonicity: more per-packet cycles, less throughput.
	for i := 0; i+1 < len(r.Sweep); i++ {
		if r.Sweep[i].MeasuredGbs <= r.Sweep[i+1].MeasuredGbs {
			t.Error("busy-wait sweep should decrease throughput")
		}
	}
	if !strings.Contains(r.Render(), "busywait") {
		t.Error("render broken")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := RunTable3(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	// Anchored within 15% of the paper's RTTs across all modes.
	for i, k := range r.Keys {
		within(t, k.NIC+"/"+k.Mode.String()+" rtt", r.Results[i], Table3Paper[k.NIC][k.Mode], 0.25)
	}
	if !strings.Contains(r.Render(), "13.4") {
		t.Error("render missing paper anchors")
	}
}

func TestMissPenalty(t *testing.T) {
	r, err := RunMissPenalty(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "miss penalty", r.MissPenaltyCycles, PaperMissPenaltyCycles, 0.1)
	if r.MissPenaltyMicros < 0.4 || r.MissPenaltyMicros > 0.6 {
		t.Errorf("miss penalty = %.2f us, paper ~0.5", r.MissPenaltyMicros)
	}
	// rIOMMU: in-order access is essentially free; random pays one DRAM
	// fetch, still well below the radix-walk penalty.
	if r.RInOrderCycles > 10 {
		t.Errorf("riommu in-order cycles/send = %.1f, want ~0", r.RInOrderCycles)
	}
	if r.RRandomCycles >= r.MissPenaltyCycles/2 {
		t.Errorf("riommu random fetch (%.0f) should be far below the baseline miss (%.0f)",
			r.RRandomCycles, r.MissPenaltyCycles)
	}
	if !strings.Contains(r.Render(), "miss penalty") {
		t.Error("render broken")
	}
}

func TestPrefetchersFindings(t *testing.T) {
	r, err := RunPrefetchers(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	big := r.Histories[len(r.Histories)-1]
	small := r.Histories[0]
	// Finding 1: baseline variants ineffective.
	for name, rate := range r.BaselineHitRates {
		if rate > 0.15 {
			t.Errorf("baseline %s hit rate = %.2f, want ~0", name, rate)
		}
	}
	// Finding 2: Markov and Recency predict most accesses only with
	// history above the ring's live set.
	for _, name := range []string{"markov", "recency"} {
		if r.HitRates[name][big] < 0.55 {
			t.Errorf("%s with big history = %.2f, want most accesses", name, r.HitRates[name][big])
		}
		if r.HitRates[name][small] > r.HitRates[name][big]/2 {
			t.Errorf("%s small-history rate %.2f should be well below big-history %.2f",
				name, r.HitRates[name][small], r.HitRates[name][big])
		}
	}
	// Finding 3: Distance remains ineffective.
	if r.HitRates["distance"][big] > 0.3 {
		t.Errorf("distance = %.2f, want ineffective", r.HitRates["distance"][big])
	}
	// Reference: the rIOTLB predicts essentially all sequential accesses
	// with 2 entries per ring.
	if r.RIOTLBHitRate < 0.95 {
		t.Errorf("rIOTLB prediction rate = %.2f, want ~1", r.RIOTLBHitRate)
	}
	if r.RIOTLBEntries != 2 {
		t.Errorf("rIOTLB entries = %d, want 2", r.RIOTLBEntries)
	}
	if !strings.Contains(r.Render(), "markov") {
		t.Error("render broken")
	}
}

func TestAblations(t *testing.T) {
	r, err := RunAblations(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	// A: invalidation amortization — burst 200 must be far cheaper than
	// burst 1, and within ~15% of the burst-32 plateau (§4's claim that
	// ~200 iterations make invalidations negligible).
	burst := r.BurstC.At
	if burst(1) < burst(200)*1.5 {
		t.Errorf("burst-1 C=%.0f should far exceed burst-200 C=%.0f", burst(1), burst(200))
	}
	if burst(200) > burst(32)*1.05 {
		t.Errorf("burst 200 (%.0f) should sit on the amortization plateau (%.0f)", burst(200), burst(32))
	}
	// B: larger defer batches buy cycles (monotone decrease).
	batches, deferC := r.DeferC.Keys, r.DeferC.Results
	for i := 0; i+1 < len(batches); i++ {
		if deferC[i] <= deferC[i+1] {
			t.Errorf("defer batch %d C=%.0f should exceed batch %d C=%.0f", batches[i], deferC[i], batches[i+1], deferC[i+1])
		}
	}
	// C: prefetching eliminates almost all device-side flat-table fetches.
	on, off := r.Prefetch.At(true), r.Prefetch.At(false)
	if on.Fetches*10 >= off.Fetches {
		t.Errorf("prefetch on: %d fetches vs off: %d — expected >=10x reduction",
			on.Fetches, off.Fetches)
	}
	if on.HitRate < 0.95 {
		t.Errorf("prediction rate %.2f", on.HitRate)
	}
	// D: N >= L never overflows; N < L overflows exactly the shortfall.
	overflows := r.Overflows.At
	if overflows(64) != 0 || overflows(128) != 0 {
		t.Error("adequately sized tables overflowed")
	}
	if overflows(16) != 48 || overflows(32) != 32 {
		t.Errorf("undersized overflow counts = %v", r.Overflows)
	}
	if !strings.Contains(r.Render(), "Ablation D") {
		t.Error("render broken")
	}
}

func TestMethodologyValidation(t *testing.T) {
	r, err := RunMethodology(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	hwpt, swpt, none := r.At(sim.HWpt), r.At(sim.SWpt), r.At(sim.None)
	// HWpt and SWpt are identical in every metric (§5.1).
	if hwpt.StreamGbps != swpt.StreamGbps {
		t.Errorf("HWpt stream %.2f != SWpt %.2f", hwpt.StreamGbps, swpt.StreamGbps)
	}
	if hwpt.RRMicros != swpt.RRMicros {
		t.Errorf("HWpt rtt %.2f != SWpt %.2f", hwpt.RRMicros, swpt.RRMicros)
	}
	// Stream trails none by ~10% (the abstraction overhead)...
	ratio := hwpt.StreamGbps / none.StreamGbps
	if ratio < 0.85 || ratio > 0.95 {
		t.Errorf("HWpt/none stream = %.2f, paper ~0.90", ratio)
	}
	// ...while RR is essentially identical to none (latencies hide it).
	if d := hwpt.RRMicros - none.RRMicros; d < 0 || d > 0.3 {
		t.Errorf("HWpt rtt exceeds none by %.2f us, want ~0", d)
	}
	// And SWpt really does walk tables.
	if r.SWptMisses == 0 {
		t.Error("SWpt produced no IOTLB misses — not exercising walks")
	}
	if !strings.Contains(r.Render(), "HWpt/none") {
		t.Error("render broken")
	}
}

func TestPathologyScalesLinearly(t *testing.T) {
	r, err := RunPathology(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	// The worst gap-search walk tracks the live-set size (§3.2: "linear in
	// the number of currently allocated IOVAs").
	for i, live := range r.Keys {
		walk := float64(r.Results[i].MaxWalkNodes)
		if walk < float64(live)*0.8 {
			t.Errorf("live=%d: worst walk %d nodes — pathology should be ~linear in live set", live, r.Results[i].MaxWalkNodes)
		}
	}
	// Average alloc cost grows monotonically with the live set.
	for i := 0; i+1 < len(r.Keys); i++ {
		a, b := r.Results[i].AvgAllocCycles, r.Results[i+1].AvgAllocCycles
		if a >= b {
			t.Errorf("avg alloc (live=%d) %.0f should be below (live=%d) %.0f",
				r.Keys[i], a, r.Keys[i+1], b)
		}
	}
	// The "+" allocator is flat and matches the paper's 92 cycles.
	if r.ConstAllocCycles != 92 {
		t.Errorf("const alloc = %.0f cycles, want 92", r.ConstAllocCycles)
	}
	if !strings.Contains(r.Render(), "constant-time") {
		t.Error("render broken")
	}
}

func TestNVMeExtension(t *testing.T) {
	r, err := RunNVMe(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	// rIOMMU (and the unsafe modes) saturate the drive; strict cannot.
	for _, m := range []sim.Mode{sim.RIOMMU, sim.RIOMMUMinus, sim.None} {
		if kiops := r.At(m).KIOPS; kiops < r.DriveKIOPS*0.99 {
			t.Errorf("%s: %.0fK IOPS, want drive-capped %.0fK", m, kiops, r.DriveKIOPS)
		}
	}
	if kiops := r.At(sim.Strict).KIOPS; kiops >= r.DriveKIOPS*0.95 {
		t.Errorf("strict: %.0fK IOPS — should fall short of the drive cap", kiops)
	}
	// Cost ordering holds for storage too.
	order := []sim.Mode{sim.Strict, sim.StrictPlus, sim.Defer, sim.DeferPlus, sim.RIOMMUMinus, sim.RIOMMU, sim.None}
	for i := 0; i+1 < len(order); i++ {
		a, b := r.At(order[i]).CyclesPerOp, r.At(order[i+1]).CyclesPerOp
		if a <= b {
			t.Errorf("cycles/op(%s)=%.0f should exceed %s=%.0f", order[i], a, order[i+1], b)
		}
	}
	if !strings.Contains(r.Render(), "IOPS") {
		t.Error("render broken")
	}
}

func TestBonnieIndistinguishable(t *testing.T) {
	r, err := RunBonnie(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.At(sim.Strict).Throughput / r.At(sim.None).Throughput
	if ratio < 0.95 || ratio > 1.0 {
		t.Errorf("bonnie strict/none = %.3f, want ≈1", ratio)
	}
	if !strings.Contains(r.Render(), "MB/s") {
		t.Error("render broken")
	}
}
