// Package oamap is an open-addressed multimap from uint64 keys to
// non-negative int32 values: the index behind the IOTLB and the audit
// oracle's live set.
//
// The table is one pointer-free array of slots, probed linearly from a
// multiplicative (Fibonacci) hash of the key. A deletion shifts the rest of
// its cluster back instead of leaving a tombstone, so a table never needs
// rehashing in place, and only Insert grows it. Equal keys may repeat; a
// key's entries sit in its probe sequence in insertion order, and First and
// Next return them in that order. Lookups hand out slot positions instead
// of taking a callback, so a caller can test each candidate inline.
// Iteration by position (Slots, Entry) visits the entries in slot order,
// which is a function of the operations applied, never of the run.
package oamap

import "math/bits"

// slot is one table entry. v1 is the value plus one; zero marks an empty
// slot, so a zeroed array is an empty table.
type slot struct {
	key uint64
	v1  int32
}

// minSlots is the size of a table's first allocation.
const minSlots = 8

// Multimap is the table. The zero value is an empty table that allocates
// on its first Insert.
type Multimap struct {
	slots []slot
	mask  int
	shift uint // 64 - log2(len(slots))
	n     int
}

// New returns an empty table with room for at least n entries before its
// first growth.
func New(n int) Multimap {
	var m Multimap
	m.alloc(n * 2)
	return m
}

// alloc replaces the slots with an empty array of at least n slots, a
// power of two.
func (m *Multimap) alloc(n int) {
	size := minSlots
	if n > size {
		size = 1 << bits.Len(uint(n-1))
	}
	m.slots = make([]slot, size)
	m.mask = size - 1
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is k's first probe position.
func (m *Multimap) home(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> m.shift)
}

// Len returns the number of entries.
func (m *Multimap) Len() int { return m.n }

// Slots returns the number of slots; Entry takes positions below it.
func (m *Multimap) Slots() int { return len(m.slots) }

// Entry returns the key and value at position i, and whether the slot
// holds an entry.
func (m *Multimap) Entry(i int) (k uint64, v int32, ok bool) {
	s := m.slots[i]
	return s.key, s.v1 - 1, s.v1 != 0
}

// Value returns the value at position i, which First or Next returned.
func (m *Multimap) Value(i int) int32 { return m.slots[i].v1 - 1 }

// First returns the position of k's oldest entry, or -1 if k has none.
func (m *Multimap) First(k uint64) int {
	if m.n == 0 {
		return -1
	}
	return m.scan(k, m.home(k))
}

// Next returns the position of the entry of k inserted after the one at
// position i, or -1 if there is none.
func (m *Multimap) Next(k uint64, i int) int { return m.scan(k, (i+1)&m.mask) }

// scan returns the first position from i on that holds k, or -1 at the
// first empty slot. A table is never full, so the scan always ends.
func (m *Multimap) scan(k uint64, i int) int {
	for {
		s := &m.slots[i]
		if s.v1 == 0 {
			return -1
		}
		if s.key == k {
			return i
		}
		i = (i + 1) & m.mask
	}
}

// Insert adds the entry (k, v) after every entry k already has. v must be
// non-negative. The table doubles before it passes three-quarters full.
func (m *Multimap) Insert(k uint64, v int32) {
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	m.place(k, v+1)
	m.n++
}

// place puts an entry in the first empty slot of k's probe sequence.
func (m *Multimap) place(k uint64, v1 int32) {
	i := m.home(k)
	for m.slots[i].v1 != 0 {
		i = (i + 1) & m.mask
	}
	m.slots[i] = slot{key: k, v1: v1}
}

// grow doubles the table. It re-places the entries cluster by cluster,
// starting after an empty slot, so no cluster is split and equal keys keep
// their order.
func (m *Multimap) grow() {
	old := m.slots
	m.alloc(2 * len(old))
	start := 0
	for start < len(old) && old[start].v1 != 0 {
		start++
	}
	for j := 1; j <= len(old); j++ {
		if s := old[(start+j)&(len(old)-1)]; s.v1 != 0 {
			m.place(s.key, s.v1)
		}
	}
}

// Delete removes the oldest entry (k, v) and reports whether there was one.
func (m *Multimap) Delete(k uint64, v int32) bool {
	for i := m.First(k); i >= 0; i = m.Next(k, i) {
		if m.slots[i].v1 == v+1 {
			m.Remove(i)
			return true
		}
	}
	return false
}

// Remove deletes the entry at position i. Each later entry of the cluster
// whose home does not lie between the hole and itself moves back into the
// hole, which leaves no tombstone and keeps every key's entries in order.
func (m *Multimap) Remove(i int) {
	for j := (i + 1) & m.mask; m.slots[j].v1 != 0; j = (j + 1) & m.mask {
		if (j-m.home(m.slots[j].key))&m.mask >= (j-i)&m.mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot{}
	m.n--
}

// Clear removes every entry and keeps the slots.
func (m *Multimap) Clear() {
	clear(m.slots)
	m.n = 0
}
