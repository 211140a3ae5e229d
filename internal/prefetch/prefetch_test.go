package prefetch

import (
	"math/rand"
	"testing"

	"riommu/internal/pci"
	"riommu/internal/trace"
)

var dev = pci.NewBDF(0, 3, 0)

// paperConfig is the paper's setting, the one the prefetchers experiment
// sweeps around: a realistic IOTLB and a moderate history.
var paperConfig = Config{TLBEntries: 64, History: 1024, RetainInvalidated: true}

func TestLRUSet(t *testing.T) {
	s := newLRUSet(2)
	s.Insert(1)
	s.Insert(2)
	s.Touch(1)
	s.Insert(3) // evicts 2
	if s.Contains(2) {
		t.Error("LRU eviction failed")
	}
	if !s.Contains(1) || !s.Contains(3) {
		t.Error("wrong contents")
	}
	s.Remove(1)
	if s.Contains(1) || s.Len() != 1 {
		t.Error("Remove failed")
	}
	s.Touch(99) // no-op for absent page
	s.Insert(3) // re-insert promotes, no dup
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestBoundedMap(t *testing.T) {
	b := newBoundedMap(2)
	b.add(1, 10)
	b.add(1, 11)
	b.add(1, 10) // promotes 10 to front
	got := b.get(1)
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Errorf("get(1) = %v", got)
	}
	b.add(2, 20)
	b.add(3, 30) // evicts key 1 (FIFO)
	if b.get(1) != nil {
		t.Error("FIFO eviction failed")
	}
	if b.len() != 2 {
		t.Errorf("len = %d", b.len())
	}
	// Successor list caps at 2.
	b.add(2, 21)
	b.add(2, 22)
	if l := b.get(2); len(l) != 2 || l[0] != 22 {
		t.Errorf("successors = %v", l)
	}
}

// TestBaselineVariantsIneffective reproduces §5.4's first finding: with
// invalidated addresses purged from history (the prefetchers' original
// form), the streaming DMA workload yields almost no hits.
func TestBaselineVariantsIneffective(t *testing.T) {
	tr := SyntheticRingTrace(dev, 512, 6, 2, 10)
	cfg := Config{TLBEntries: 64, History: 8192, RetainInvalidated: false}
	for _, p := range NewAll(cfg) {
		s := Evaluate(p, tr)
		if rate := s.HitRate(); rate > 0.05 {
			t.Errorf("%s baseline hit rate = %.2f, want ~0 (IOVAs are single-use)", p.Name(), rate)
		}
	}
}

// TestModifiedMarkovRecencyNeedLargeHistory reproduces the second finding:
// Markov and Recency predict most accesses, but only once their history
// exceeds the ring size; Distance stays ineffective.
func TestModifiedMarkovRecencyNeedLargeHistory(t *testing.T) {
	const ringPages = 512
	tr := SyntheticRingTrace(dev, ringPages, 6, 2, 10)

	small := Config{TLBEntries: 64, History: ringPages / 4, RetainInvalidated: true}
	large := Config{TLBEntries: 64, History: ringPages * 4, RetainInvalidated: true}

	for _, mk := range []func(Config) Prefetcher{
		func(c Config) Prefetcher { return NewMarkov(c) },
		func(c Config) Prefetcher { return NewRecency(c) },
	} {
		ps := Evaluate(mk(small), tr)
		pl := Evaluate(mk(large), tr)
		if ps.HitRate() > 0.3 {
			t.Errorf("%s with small history: hit rate %.2f, want low", mk(small).Name(), ps.HitRate())
		}
		if pl.HitRate() < 0.6 {
			t.Errorf("%s with history > ring: hit rate %.2f, want most accesses predicted", mk(large).Name(), pl.HitRate())
		}
	}

	d := Evaluate(NewDistance(large), tr)
	if d.HitRate() > 0.3 {
		t.Errorf("distance hit rate = %.2f; the paper found it ineffective", d.HitRate())
	}
}

// TestMappedCheckSuppressesStale: the mandated page-table check must keep
// unmapped predictions out of the TLB.
func TestMappedCheckSuppressesStale(t *testing.T) {
	tr := SyntheticRingTrace(dev, 64, 4, 1, 30)
	cfg := Config{TLBEntries: 64, History: 1024, RetainInvalidated: true}
	m := NewMarkov(cfg)
	s := Evaluate(m, tr)
	if s.Suppressed == 0 {
		t.Error("expected some predictions suppressed by the mapped-check")
	}
	// No stale entries: everything in the TLB at the end must be mapped.
	for page := range m.tlb.nodes {
		if !m.isMapped(page) {
			// The demand-insert on miss also caches the current access,
			// which is legitimately mapped at access time; after its unmap
			// the entry was purged. Anything left must be mapped.
			t.Errorf("unmapped page %#x cached", page)
		}
	}
}

func TestEvaluateCounters(t *testing.T) {
	tr := SyntheticRingTrace(dev, 16, 2, 1, 0)
	s := Evaluate(NewMarkov(paperConfig), tr)
	if s.Accesses != 32 {
		t.Errorf("Accesses = %d, want 32", s.Accesses)
	}
	if s.Invalidates != 32 {
		t.Errorf("Invalidates = %d, want 32", s.Invalidates)
	}
}

func TestPrefetcherNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range NewAll(paperConfig) {
		names[p.Name()] = true
	}
	for _, want := range []string{"markov", "recency", "distance"} {
		if !names[want] {
			t.Errorf("missing prefetcher %q", want)
		}
	}
}

func TestSequentialStrideWorkloadFavorsDistance(t *testing.T) {
	// Sanity check that Distance is not broken per se: on a persistent
	// stride-1 workload (no unmaps) it predicts nearly everything.
	tr := &trace.Trace{}
	for i := 0; i < 4096; i++ {
		p := uint64(0x1000+i%128) << 12
		if i < 128 {
			tr.Record(trace.EvMap, dev, p, pci.DirFromDevice)
		}
	}
	for i := 0; i < 4096; i++ {
		tr.Record(trace.EvTranslate, dev, uint64(0x1000+i%128)<<12, pci.DirFromDevice)
	}
	s := Evaluate(NewDistance(paperConfig), tr)
	if s.HitRate() < 0.8 {
		t.Errorf("distance on persistent stride workload: hit rate %.2f, want high", s.HitRate())
	}
}

// rebuildDistance is the baseline Distance prefetcher as it was before its
// Unmap reset the stride table in place: every unmap built a fresh table.
type rebuildDistance struct{ *Distance }

func (r rebuildDistance) Unmap(p uint64) {
	r.onUnmap(p)
	if !r.cfg.RetainInvalidated {
		r.table = newBoundedMap(min(r.cfg.History, distanceTableCap))
		r.first = true
		r.delta = 0
	}
}

// TestDistanceResetMatchesRebuild drives the baseline Distance prefetcher
// and the rebuilding reference with the same seeded stream of maps,
// strided accesses and unmaps, and requires the same hit on every access
// and the same final counters. Small and capped histories both run, and the
// test fails unless the stream fills a table to its bound before an unmap
// and produces prefetches and hits.
func TestDistanceResetMatchesRebuild(t *testing.T) {
	var fullAtUnmap int
	var prefetches, hits uint64
	for _, history := range []int{8, 4096} {
		for seed := int64(0); seed < 20; seed++ {
			cfg := Config{TLBEntries: 16, History: history}
			got, want := NewDistance(cfg), rebuildDistance{NewDistance(cfg)}
			rng := rand.New(rand.NewSource(seed))
			strides := []uint64{1, 2, 5, ^uint64(0)}
			p := uint64(0x1000)
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(100); {
				case r < 3:
					if got.table.len() == got.table.cap {
						fullAtUnmap++
					}
					q := p - uint64(rng.Intn(8))
					got.Unmap(q)
					want.Unmap(q)
				default:
					if r < 15 {
						p += uint64(rng.Intn(1 << 12)) // a stride no table holds
					} else {
						p += strides[rng.Intn(len(strides))]
					}
					// Map the access and every page a stride from it,
					// so predictions pass the mapped check.
					for _, q := range append([]uint64{0}, strides...) {
						got.Map(p + q)
						want.Map(p + q)
					}
					if g, w := got.Access(p), want.Access(p); g != w {
						t.Fatalf("history %d seed %d op %d: Access(%#x) hit = %v, rebuilt table gives %v", history, seed, op, p, g, w)
					}
				}
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("history %d seed %d: stats %+v, rebuilt table gives %+v", history, seed, g, w)
			}
			prefetches += got.Stats().Prefetches
			hits += got.Stats().Hits
		}
	}
	t.Logf("tables full at unmap %d, prefetches %d, hits %d", fullAtUnmap, prefetches, hits)
	if fullAtUnmap == 0 || prefetches == 0 || hits == 0 {
		t.Fatal("the stream no longer fills a table before an unmap, prefetches and hits")
	}
}
