// Package iotlb models the baseline IOMMU's translation cache (§2.2): a
// finite cache of IOVA-page → physical-frame translations filled on demand by
// the hardware page walker and invalidated explicitly by the OS as part of
// unmap. Invalidation of a single entry costs ~2,127 cycles on the paper's
// hardware (Table 1); flushing the whole IOTLB is what Linux's deferred mode
// amortizes over 250 unmaps. The same cache, at a larger capacity, is each
// tenant domain's stage-2 TLB.
//
// Every DMA the baseline translates looks the cache up, so the cache is
// indexed by an open-addressed table (internal/oamap), not a Go map: a
// lookup hashes one uint64, not a struct, and probes one pointer-free
// array.
package iotlb

import (
	"riommu/internal/mem"
	"riommu/internal/oamap"
	"riommu/internal/pci"
)

// Key identifies a cached translation: the issuing device and the IOVA page.
type Key struct {
	BDF     pci.BDF
	IOVAPFN uint64
}

// Entry is a cached translation.
type Entry struct {
	Frame mem.PFN
	Perm  pci.Dir
}

// Stats counts IOTLB events since creation.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Inserts      uint64
	Evictions    uint64
	Invalidates  uint64 // single-entry invalidations
	GlobalFlush  uint64 // whole-cache flushes
	StaleLookups uint64 // hits served after the OS unmapped (deferred-mode window)
}

// IOTLB is a fully-associative translation cache with LRU replacement.
// DefaultCapacity matches contemporary IOTLB sizes (dozens of entries);
// the exact figure is not architecturally visible and only matters for the
// §5.3 miss-penalty experiment, which defeats any realistic size.
//
// The cache is laid out struct-of-arrays: the keys, the cached entries, the
// stale bits, and the intrusive LRU links each live in their own parallel
// array, indexed by slot. The link words a hit or eviction chases are then
// 8 bytes apart instead of striding over whole slot structs, so the LRU
// maintenance loop stays inside one or two cache lines at realistic
// capacities. Slots are threaded onto two index-linked lists (LRU order and
// free list). The index maps a 64-bit mix of each Key to its slot and is
// sized once, at twice the capacity. The hot operations — hit,
// insert-with-eviction, invalidate — allocate nothing: slots are recycled
// in place and the index never grows. The eviction policy (exact LRU,
// pinned by tests) is unchanged from the slot-of-structs layout.
type IOTLB struct {
	capacity int
	index    oamap.Multimap // mix(Key) → slot

	// Parallel slot arrays (struct-of-arrays layout).
	keys    []Key
	entries []Entry
	stale   []bool // OS has unmapped this translation but not invalidated it
	prev    []int32
	next    []int32

	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
	freeHead int32 // singly linked free list through next, -1 when exhausted
	stats    Stats
}

const nilSlot = int32(-1)

// DefaultCapacity is the default number of IOTLB entries.
const DefaultCapacity = 64

// New returns an empty IOTLB with the given capacity (DefaultCapacity if <= 0).
func New(capacity int) *IOTLB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &IOTLB{
		capacity: capacity,
		index:    oamap.New(capacity),
		keys:     make([]Key, capacity),
		entries:  make([]Entry, capacity),
		stale:    make([]bool, capacity),
		prev:     make([]int32, capacity),
		next:     make([]int32, capacity),
	}
	t.reset()
	return t
}

// mix folds a Key into the table's 64-bit key: the BDF above bit 48, clear
// of any page number of a 48-bit address space. A wider page number folds
// into the BDF's bits; find's exact Key compare tells the two apart.
func mix(k Key) uint64 { return uint64(k.BDF)<<48 ^ k.IOVAPFN }

// find returns key's table position and slot, or -1 and nilSlot.
func (t *IOTLB) find(key Key) (int, int32) {
	h := mix(key)
	for p := t.index.First(h); p >= 0; p = t.index.Next(h, p) {
		if i := t.index.Value(p); t.keys[i] == key {
			return p, i
		}
	}
	return -1, nilSlot
}

// reset threads every slot onto the free list and empties the LRU order.
func (t *IOTLB) reset() {
	for i := range t.keys {
		t.keys[i] = Key{}
		t.entries[i] = Entry{}
		t.stale[i] = false
		t.prev[i] = nilSlot
		t.next[i] = int32(i) + 1
	}
	t.next[t.capacity-1] = nilSlot
	t.freeHead = 0
	t.head, t.tail = nilSlot, nilSlot
}

// Capacity returns the maximum number of entries.
func (t *IOTLB) Capacity() int { return t.capacity }

// Stats returns a copy of the event counters.
func (t *IOTLB) Stats() Stats { return t.stats }

// Lookup consults the cache. On a hit the entry is promoted to most recently
// used. A hit on a stale entry (unmapped but not yet invalidated — the
// deferred-mode vulnerability window) is counted in StaleLookups and still
// returned, exactly as real hardware would.
func (t *IOTLB) Lookup(key Key) (Entry, bool) {
	_, i := t.find(key)
	if i == nilSlot {
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

// Insert caches a translation, evicting the LRU entry if full.
func (t *IOTLB) Insert(key Key, e Entry) {
	if _, i := t.find(key); i != nilSlot {
		t.entries[i] = e
		t.stale[i] = false
		t.moveToFront(i)
		return
	}
	i := t.freeHead
	if i == nilSlot {
		i = t.tail
		t.unlink(i)
		t.index.Delete(mix(t.keys[i]), i)
		t.stats.Evictions++
	} else {
		t.freeHead = t.next[i]
	}
	t.keys[i] = key
	t.entries[i] = e
	t.stale[i] = false
	t.prev[i], t.next[i] = nilSlot, nilSlot
	t.index.Insert(mix(key), i)
	t.pushFront(i)
	t.stats.Inserts++
}

// MarkStale flags a cached translation whose mapping the OS has removed but
// whose invalidation is deferred. It is a no-op if the entry is not cached.
func (t *IOTLB) MarkStale(key Key) {
	if _, i := t.find(key); i != nilSlot {
		t.stale[i] = true
	}
}

// Invalidate removes a single entry (the strict-mode per-unmap operation).
func (t *IOTLB) Invalidate(key Key) {
	t.stats.Invalidates++
	if p, i := t.find(key); i != nilSlot {
		t.unlink(i)
		t.index.Remove(p)
		t.next[i] = t.freeHead
		t.freeHead = i
	}
}

// Flush empties the whole cache (the deferred-mode bulk operation).
func (t *IOTLB) Flush() {
	t.stats.GlobalFlush++
	t.index.Clear()
	t.reset()
}

func (t *IOTLB) pushFront(i int32) {
	t.prev[i] = nilSlot
	t.next[i] = t.head
	if t.head != nilSlot {
		t.prev[t.head] = i
	}
	t.head = i
	if t.tail == nilSlot {
		t.tail = i
	}
}

func (t *IOTLB) unlink(i int32) {
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

func (t *IOTLB) moveToFront(i int32) {
	if t.head == i {
		return
	}
	t.unlink(i)
	t.pushFront(i)
}
