package iotlb

import (
	"math/rand"
	"reflect"
	"testing"

	"riommu/internal/mem"
	"riommu/internal/pci"
)

// mapIOTLB is the IOTLB as it was before the open-addressed index: the
// same struct-of-arrays slots and LRU lists, indexed by a map from Key to
// slot. Any divergence between the two is the index's.
type mapIOTLB struct {
	capacity int
	index    map[Key]int32

	keys    []Key
	entries []Entry
	stale   []bool
	prev    []int32
	next    []int32

	head, tail, freeHead int32
	stats                Stats
}

func newMapIOTLB(capacity int) *mapIOTLB {
	t := &mapIOTLB{
		capacity: capacity,
		index:    make(map[Key]int32, capacity),
		keys:     make([]Key, capacity),
		entries:  make([]Entry, capacity),
		stale:    make([]bool, capacity),
		prev:     make([]int32, capacity),
		next:     make([]int32, capacity),
	}
	t.reset()
	return t
}

func (t *mapIOTLB) reset() {
	for i := range t.keys {
		t.keys[i], t.entries[i], t.stale[i] = Key{}, Entry{}, false
		t.prev[i], t.next[i] = nilSlot, int32(i)+1
	}
	t.next[t.capacity-1] = nilSlot
	t.freeHead = 0
	t.head, t.tail = nilSlot, nilSlot
}

func (t *mapIOTLB) Len() int     { return len(t.index) }
func (t *mapIOTLB) Stats() Stats { return t.stats }

func (t *mapIOTLB) Lookup(key Key) (Entry, bool) {
	i, ok := t.index[key]
	if !ok {
		t.stats.Misses++
		return Entry{}, false
	}
	t.stats.Hits++
	if t.stale[i] {
		t.stats.StaleLookups++
	}
	t.moveToFront(i)
	return t.entries[i], true
}

func (t *mapIOTLB) Insert(key Key, e Entry) {
	if i, ok := t.index[key]; ok {
		t.entries[i], t.stale[i] = e, false
		t.moveToFront(i)
		return
	}
	i := t.freeHead
	if i == nilSlot {
		i = t.tail
		t.unlink(i)
		delete(t.index, t.keys[i])
		t.stats.Evictions++
	} else {
		t.freeHead = t.next[i]
	}
	t.keys[i], t.entries[i], t.stale[i] = key, e, false
	t.prev[i], t.next[i] = nilSlot, nilSlot
	t.index[key] = i
	t.pushFront(i)
	t.stats.Inserts++
}

func (t *mapIOTLB) MarkStale(key Key) {
	if i, ok := t.index[key]; ok {
		t.stale[i] = true
	}
}

func (t *mapIOTLB) Invalidate(key Key) {
	t.stats.Invalidates++
	if i, ok := t.index[key]; ok {
		t.unlink(i)
		delete(t.index, key)
		t.next[i] = t.freeHead
		t.freeHead = i
	}
}

func (t *mapIOTLB) Flush() {
	t.stats.GlobalFlush++
	clear(t.index)
	t.reset()
}

func (t *mapIOTLB) pushFront(i int32) {
	t.prev[i], t.next[i] = nilSlot, t.head
	if t.head != nilSlot {
		t.prev[t.head] = i
	}
	t.head = i
	if t.tail == nilSlot {
		t.tail = i
	}
}

func (t *mapIOTLB) unlink(i int32) {
	p, n := t.prev[i], t.next[i]
	if p != nilSlot {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n != nilSlot {
		t.prev[n] = p
	} else {
		t.tail = p
	}
	t.prev[i], t.next[i] = nilSlot, nilSlot
}

func (t *mapIOTLB) moveToFront(i int32) {
	if t.head != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

// lru returns the cached keys from most to least recently used: the order
// in which they would be evicted, last first.
func (t *mapIOTLB) lru() []Key {
	var out []Key
	for i := t.head; i != nilSlot; i = t.next[i] {
		out = append(out, t.keys[i])
	}
	return out
}

func (t *IOTLB) lru() []Key {
	var out []Key
	for i := t.head; i != nilSlot; i = t.next[i] {
		out = append(out, t.keys[i])
	}
	return out
}

// TestIOTLBMatchesMapReference drives the IOTLB and the map-indexed
// reference with the same seeded Lookup, Insert, MarkStale, Invalidate and
// Flush sequences and requires equal results, Stats, Len and LRU order
// after every operation. Keys come from a working set a few times the
// capacity, on two devices, with page numbers that collide in the table's
// 64-bit mix (a page number above bit 48 folds into the BDF's bits).
func TestIOTLBMatchesMapReference(t *testing.T) {
	devs := []pci.BDF{pci.NewBDF(0, 3, 0), pci.NewBDF(0, 4, 0)}
	for _, capacity := range []int{1, 2, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := New(capacity), newMapIOTLB(capacity)
			pages := 3*capacity + 2
			keyOf := func() Key {
				pfn := uint64(rng.Intn(pages))
				if rng.Intn(8) == 0 {
					// Same mix as the page on the other device.
					pfn |= uint64(devs[0]^devs[1]) << 48
				}
				return Key{BDF: devs[rng.Intn(len(devs))], IOVAPFN: pfn}
			}
			for step := 0; step < 4000; step++ {
				k := keyOf()
				switch r := rng.Intn(100); {
				case r < 40:
					ge, gok := got.Lookup(k)
					we, wok := want.Lookup(k)
					if ge != we || gok != wok {
						t.Fatalf("cap %d seed %d step %d: Lookup(%+v) = %+v %v, reference %+v %v", capacity, seed, step, k, ge, gok, we, wok)
					}
				case r < 75:
					e := Entry{Frame: mem.PFN(rng.Intn(1 << 20)), Perm: pci.Dir(1 + rng.Intn(3))}
					got.Insert(k, e)
					want.Insert(k, e)
				case r < 85:
					got.MarkStale(k)
					want.MarkStale(k)
				case r < 99:
					got.Invalidate(k)
					want.Invalidate(k)
				default:
					got.Flush()
					want.Flush()
				}
				if got.Stats() != want.Stats() || got.index.Len() != want.Len() {
					t.Fatalf("cap %d seed %d step %d: Stats %+v Len %d, reference %+v Len %d", capacity, seed, step, got.Stats(), got.index.Len(), want.Stats(), want.Len())
				}
				if g, w := got.lru(), want.lru(); !reflect.DeepEqual(g, w) {
					t.Fatalf("cap %d seed %d step %d: LRU order %v, reference %v", capacity, seed, step, g, w)
				}
			}
		}
	}
}
