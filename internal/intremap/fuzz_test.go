package intremap

import (
	"testing"

	"riommu/internal/pci"
)

// FuzzIRTEAllocator drives random alloc/free sequences against the remap
// table and checks the geometry invariants after every operation: the live
// count matches the present entries, per-BDF counts agree, the free hint
// never skips a free slot below it, and no (BDF, vector) pair ever aliases
// across two live entries.
func FuzzIRTEAllocator(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x42, 0x80, 0x01, 0x23})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x00, 0x00, 0x00, 0x10, 0x20})
	f.Add([]byte{0x03, 0x03, 0x03, 0x43, 0x43, 0x83, 0xc3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb, err := NewTable(5) // 32 entries: small enough to fill
		if err != nil {
			t.Fatal(err)
		}
		bdfs := []pci.BDF{pci.NewBDF(0, 3, 0), pci.NewBDF(0, 4, 0), pci.NewBDF(0, 5, 1)}
		var allocated []int
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 { // op 3 does nothing, so stored inputs keep their meaning
			case 0: // alloc
				bdf := bdfs[int(arg)%len(bdfs)]
				vec := arg % 64
				idx, err := tb.Alloc(bdf, vec, int(arg)%4, arg&0x80 != 0)
				if err == nil {
					allocated = append(allocated, idx)
					e, ok := tb.At(idx)
					if !ok || !e.Present || e.BDF != bdf || e.Vector != vec {
						t.Fatalf("alloc produced wrong entry %+v", e)
					}
				}
			case 1: // free a previously allocated slot
				if len(allocated) > 0 {
					j := int(arg) % len(allocated)
					_ = tb.Free(allocated[j])
					allocated = append(allocated[:j], allocated[j+1:]...)
				}
			case 2: // free an arbitrary (possibly invalid) index
				idx := int(arg) % (tb.Size() + 4)
				if err := tb.Free(idx); err == nil {
					for j, a := range allocated {
						if a == idx {
							allocated = append(allocated[:j], allocated[j+1:]...)
							break
						}
					}
				}
			}
			checkInvariants(t, tb)
		}
	})
}

func checkInvariants(t *testing.T, tb *Table) {
	t.Helper()
	live := 0
	perBDF := map[pci.BDF]int{}
	seen := map[uint32]int{}
	for i := 0; i < tb.Size(); i++ {
		e, ok := tb.At(i)
		if !ok {
			t.Fatalf("index %d out of range of its own table", i)
		}
		if !e.Present {
			continue
		}
		live++
		perBDF[e.BDF]++
		k := uint32(e.BDF)<<8 | uint32(e.Vector)
		if prev, dup := seen[k]; dup {
			t.Fatalf("(bdf,vector) alias: entries %d and %d both hold %s/%#x",
				prev, i, e.BDF, e.Vector)
		}
		seen[k] = i
	}
	if live != tb.Live() {
		t.Fatalf("live count drift: counted %d, table says %d", live, tb.Live())
	}
	for bdf, n := range perBDF {
		if tb.LiveFor(bdf) != n {
			t.Fatalf("per-BDF drift for %s: counted %d, table says %d", bdf, n, tb.LiveFor(bdf))
		}
	}
	// Allocation must still succeed whenever a slot is free.
	if tb.Live() < tb.Size() {
		probe := pci.NewBDF(7, 7, 7)
		idx, err := tb.Alloc(probe, 0xff, 0, false)
		if err != nil {
			t.Fatalf("alloc failed with %d free slots: %v", tb.Size()-tb.Live(), err)
		}
		if e, _ := tb.At(idx); !e.Present {
			t.Fatal("probe alloc not present")
		}
		if err := tb.Free(idx); err != nil {
			t.Fatalf("probe free: %v", err)
		}
	}
}
