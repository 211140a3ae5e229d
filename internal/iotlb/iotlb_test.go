package iotlb

import (
	"testing"
	"testing/quick"

	"riommu/internal/mem"
	"riommu/internal/pci"
)

var dev = pci.NewBDF(0, 3, 0)

func key(pfn uint64) Key { return Key{BDF: dev, IOVAPFN: pfn} }

func TestLookupMissThenHit(t *testing.T) {
	tlb := New(4)
	if _, ok := tlb.Lookup(key(1)); ok {
		t.Fatal("hit on empty IOTLB")
	}
	tlb.Insert(key(1), Entry{Frame: 7, Perm: pci.DirBidi})
	e, ok := tlb.Lookup(key(1))
	if !ok {
		t.Fatal("miss after insert")
	}
	if e.Frame != 7 || e.Perm != pci.DirBidi {
		t.Errorf("entry = %+v", e)
	}
	s := tlb.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	tlb := New(2)
	tlb.Insert(key(1), Entry{Frame: 1})
	tlb.Insert(key(2), Entry{Frame: 2})
	// Touch 1 so 2 becomes LRU.
	if _, ok := tlb.Lookup(key(1)); !ok {
		t.Fatal("miss")
	}
	tlb.Insert(key(3), Entry{Frame: 3})
	if _, ok := tlb.Lookup(key(2)); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	if _, ok := tlb.Lookup(key(1)); !ok {
		t.Error("MRU entry 1 evicted")
	}
	if tlb.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", tlb.Stats().Evictions)
	}
	if tlb.index.Len() != 2 {
		t.Errorf("Len = %d", tlb.index.Len())
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tlb := New(2)
	tlb.Insert(key(1), Entry{Frame: 1})
	tlb.Insert(key(1), Entry{Frame: 9})
	if tlb.index.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tlb.index.Len())
	}
	e, _ := tlb.Lookup(key(1))
	if e.Frame != 9 {
		t.Errorf("Frame = %d, want 9", e.Frame)
	}
}

func TestInvalidateSingle(t *testing.T) {
	tlb := New(4)
	tlb.Insert(key(1), Entry{Frame: 1})
	tlb.Insert(key(2), Entry{Frame: 2})
	tlb.Invalidate(key(1))
	if _, ok := tlb.Lookup(key(1)); ok {
		t.Error("entry survived invalidation")
	}
	if _, ok := tlb.Lookup(key(2)); !ok {
		t.Error("unrelated entry invalidated")
	}
	// Invalidating a missing entry is legal and counted.
	tlb.Invalidate(key(99))
	if tlb.Stats().Invalidates != 2 {
		t.Errorf("Invalidates = %d", tlb.Stats().Invalidates)
	}
}

func TestFlush(t *testing.T) {
	tlb := New(4)
	for i := uint64(0); i < 4; i++ {
		tlb.Insert(key(i), Entry{Frame: mem.PFN(i)})
	}
	tlb.Flush()
	if tlb.index.Len() != 0 {
		t.Errorf("Len = %d after flush", tlb.index.Len())
	}
	if tlb.Stats().GlobalFlush != 1 {
		t.Errorf("GlobalFlush = %d", tlb.Stats().GlobalFlush)
	}
	// Cache still works after flush.
	tlb.Insert(key(1), Entry{Frame: 1})
	if _, ok := tlb.Lookup(key(1)); !ok {
		t.Error("miss after post-flush insert")
	}
}

func TestStaleWindow(t *testing.T) {
	// The deferred-mode vulnerability: an unmapped-but-not-invalidated entry
	// still hits, and the hit is counted as stale.
	tlb := New(4)
	tlb.Insert(key(1), Entry{Frame: 1})
	tlb.MarkStale(key(1))
	if _, ok := tlb.Lookup(key(1)); !ok {
		t.Fatal("stale entry should still hit (that's the vulnerability)")
	}
	if tlb.Stats().StaleLookups != 1 {
		t.Errorf("StaleLookups = %d, want 1", tlb.Stats().StaleLookups)
	}
	// Re-inserting clears staleness.
	tlb.Insert(key(1), Entry{Frame: 1})
	tlb.Lookup(key(1))
	if tlb.Stats().StaleLookups != 1 {
		t.Errorf("StaleLookups = %d after refresh, want 1", tlb.Stats().StaleLookups)
	}
	// MarkStale of an uncached key is a no-op.
	tlb.MarkStale(key(42))
}

func TestPerDeviceKeys(t *testing.T) {
	tlb := New(8)
	other := pci.NewBDF(0, 4, 0)
	tlb.Insert(Key{BDF: dev, IOVAPFN: 5}, Entry{Frame: 1})
	tlb.Insert(Key{BDF: other, IOVAPFN: 5}, Entry{Frame: 2})
	e1, ok1 := tlb.Lookup(Key{BDF: dev, IOVAPFN: 5})
	e2, ok2 := tlb.Lookup(Key{BDF: other, IOVAPFN: 5})
	if !ok1 || !ok2 || e1.Frame != 1 || e2.Frame != 2 {
		t.Error("per-device keying broken")
	}
}

func TestDefaultCapacity(t *testing.T) {
	if New(0).Capacity() != DefaultCapacity {
		t.Error("New(0) should use DefaultCapacity")
	}
	if New(-5).Capacity() != DefaultCapacity {
		t.Error("New(-5) should use DefaultCapacity")
	}
	if New(7).Capacity() != 7 {
		t.Error("New(7) capacity wrong")
	}
}

// Property: the cache never exceeds capacity and a just-inserted key always
// hits, regardless of the operation sequence.
func TestCapacityProperty(t *testing.T) {
	prop := func(ops []uint16, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		tlb := New(capacity)
		for _, op := range ops {
			k := key(uint64(op % 64))
			switch op % 4 {
			case 0, 1:
				tlb.Insert(k, Entry{Frame: mem.PFN(op)})
				if _, ok := tlb.Lookup(k); !ok {
					return false
				}
			case 2:
				tlb.Lookup(k)
			case 3:
				tlb.Invalidate(k)
			}
			if tlb.index.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
