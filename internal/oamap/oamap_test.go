package oamap

import (
	"slices"
	"testing"
)

// refMultimap is the reference: a Go map of slices, each in insertion
// order.
type refMultimap map[uint64][]int32

func (r refMultimap) len() int {
	n := 0
	for _, vs := range r {
		n += len(vs)
	}
	return n
}

// homedKeys returns n distinct keys whose first probe position in a table
// of 8 slots is home.
func homedKeys(home, n int) []uint64 {
	m := New(1)
	var out []uint64
	for k := uint64(0); len(out) < n; k++ {
		if m.home(k) == home {
			out = append(out, k)
		}
	}
	return out
}

// fuzzKeys is the tiny key set of FuzzMultimap: three keys whose home is
// the last slot of an 8-slot table, so their clusters wrap past the end,
// one homed at slot 0, which the wrapped entries push out of its home, and
// one at slot 3.
var fuzzKeys = slices.Concat(homedKeys(7, 3), homedKeys(0, 1), homedKeys(3, 1))

// maxFuzzEntries bounds the table FuzzMultimap builds to at most 64 slots.
const maxFuzzEntries = 40

// values returns k's values in the order First and Next give them.
func values(m *Multimap, k uint64) []int32 {
	var out []int32
	for i := m.First(k); i >= 0; i = m.Next(k, i) {
		out = append(out, m.Value(i))
	}
	return out
}

// checkAgainst fails the test unless m holds exactly ref's entries, each
// key's in insertion order, and every entry is reachable from its home.
func checkAgainst(t *testing.T, step int, m *Multimap, ref refMultimap) {
	t.Helper()
	if m.Len() != ref.len() {
		t.Fatalf("step %d: Len = %d, reference %d", step, m.Len(), ref.len())
	}
	for _, k := range fuzzKeys {
		if got, want := values(m, k), ref[k]; !slices.Equal(got, want) {
			t.Fatalf("step %d: key %#x has %v, reference %v", step, k, got, want)
		}
	}
	seen := map[uint64][]int32{}
	for i := 0; i < m.Slots(); i++ {
		k, v, ok := m.Entry(i)
		if !ok {
			continue
		}
		seen[k] = append(seen[k], v)
		for j := m.home(k); j != i; j = (j + 1) & m.mask {
			if _, _, full := m.Entry(j); !full {
				t.Fatalf("step %d: entry at %d is cut off from its home %d by the empty slot %d", step, i, m.home(k), j)
			}
		}
	}
	for k, vs := range seen { // maporder: each key is compared on its own
		want := slices.Clone(ref[k])
		slices.Sort(vs)
		slices.Sort(want)
		if !slices.Equal(vs, want) {
			t.Fatalf("step %d: slot order visits %v under %#x, reference %v", step, vs, k, want)
		}
	}
}

// FuzzMultimap drives the table and the map-of-slices reference with the
// same operations and compares them after every step. Each operation is
// two bytes: an opcode and an argument that picks a key from fuzzKeys and a
// value from 0 to 3, so equal keys and equal pairs recur.
func FuzzMultimap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 1, 0})
	f.Add([]byte{0, 0, 0, 8, 0, 16, 0, 3, 0, 11, 3, 0, 2, 8, 4, 3, 0, 0})
	var long []byte
	for range 12 {
		long = append(long, 0, 5, 1, 14, 0, 23, 3, 5)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m Multimap
		ref := refMultimap{}
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			k := fuzzKeys[int(arg)%len(fuzzKeys)]
			v := int32(arg / 8 % 4)
			switch op % 5 {
			case 0, 1: // insert
				if m.Len() < maxFuzzEntries {
					m.Insert(k, v)
					ref[k] = append(ref[k], v)
				}
			case 2: // delete a pair, present or absent
				j := slices.Index(ref[k], v)
				if got := m.Delete(k, v); got != (j >= 0) {
					t.Fatalf("step %d: Delete(%#x, %d) = %v, reference holds it: %v", step, k, v, got, j >= 0)
				}
				if j >= 0 {
					ref[k] = slices.Delete(ref[k], j, j+1)
				}
			case 3: // remove k's v-th entry by position
				if int(v) < len(ref[k]) {
					i := m.First(k)
					for range v {
						i = m.Next(k, i)
					}
					m.Remove(i)
					ref[k] = slices.Delete(ref[k], int(v), int(v)+1)
				}
			case 4:
				if op == 255 {
					m.Clear()
					clear(ref)
				}
			}
			checkAgainst(t, step, &m, ref)
		}
	})
}

// TestKeysWrap checks the premise of fuzzKeys: their clusters wrap past
// the end of a small table.
func TestKeysWrap(t *testing.T) {
	var m Multimap
	for _, k := range fuzzKeys[:3] {
		m.Insert(k, 0)
	}
	if m.Slots() != minSlots {
		t.Fatalf("table has %d slots, want %d", m.Slots(), minSlots)
	}
	for j, want := range []int{7, 0, 1} {
		if i := m.First(fuzzKeys[j]); i != want {
			t.Fatalf("key %d homed at the last slot sits at %d, want %d", j, i, want)
		}
	}
}

// TestGrowKeepsOrder inserts one key's entries through several doublings,
// with other keys in between, and requires them back in insertion order.
func TestGrowKeepsOrder(t *testing.T) {
	var m Multimap
	var want []int32
	for v := int32(0); v < 200; v++ {
		m.Insert(fuzzKeys[0], v)
		want = append(want, v)
		m.Insert(uint64(1000+v), v)
	}
	if got := values(&m, fuzzKeys[0]); !slices.Equal(got, want) {
		t.Fatalf("after growth: %v, want %v", got, want)
	}
	for v := int32(0); v < 200; v += 2 {
		if !m.Delete(fuzzKeys[0], v) {
			t.Fatalf("Delete(%d) missed", v)
		}
	}
	want = slices.DeleteFunc(want, func(v int32) bool { return v%2 == 0 })
	if got := values(&m, fuzzKeys[0]); !slices.Equal(got, want) {
		t.Fatalf("after deletes: %v, want %v", got, want)
	}
}

// TestNewHoldsWithoutGrowing pins what the IOTLB relies on: a table made
// by New(n) takes n entries without reallocating.
func TestNewHoldsWithoutGrowing(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 512} {
		m := New(n)
		slots := m.Slots()
		if slots < 2*n {
			t.Fatalf("New(%d) has %d slots, want at least %d", n, slots, 2*n)
		}
		for k := range n {
			m.Insert(uint64(k), int32(k))
		}
		if m.Slots() != slots {
			t.Fatalf("New(%d) grew from %d to %d slots", n, slots, m.Slots())
		}
		m.Clear()
		if m.Len() != 0 || m.First(0) != -1 {
			t.Fatalf("Clear left %d entries", m.Len())
		}
	}
}
