package core

import (
	"testing"
	"testing/quick"

	"riommu/internal/mem"
	"riommu/internal/pci"
)

// TestRPTEEncodeDecodeProperty: the 128-bit rPTE layout (Figure 9c) is a
// bijection over its architectural field widths.
func TestRPTEEncodeDecodeProperty(t *testing.T) {
	prop := func(addr uint64, size uint32, dir uint8, valid bool) bool {
		p := rpte{
			physAddr: mem.PA(addr),
			size:     size & (MaxOffset - 1),
			dir:      pci.Dir(dir & 3),
			valid:    valid,
		}
		w0, w1 := encodeRPTE(p)
		return decodeRPTE(w0, w1) == p
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestRPTELayoutGolden pins the exact bit positions of Figure 9c: word 0 is
// phys_addr (u64); word 1 packs size in bits [0,30), dir in [30,32), valid
// at bit 32.
func TestRPTELayoutGolden(t *testing.T) {
	p := rpte{physAddr: 0xDEADBEEF000, size: 0x1234, dir: pci.DirFromDevice, valid: true}
	w0, w1 := encodeRPTE(p)
	if w0 != 0xDEADBEEF000 {
		t.Errorf("word0 = %#x", w0)
	}
	wantW1 := uint64(0x1234) | uint64(2)<<30 | uint64(1)<<32
	if w1 != wantW1 {
		t.Errorf("word1 = %#x, want %#x", w1, wantW1)
	}
	// Size saturates at u30 boundary values.
	p = rpte{size: MaxOffset - 1, dir: pci.DirBidi, valid: false}
	_, w1 = encodeRPTE(p)
	if w1 != uint64(MaxOffset-1)|uint64(3)<<30 {
		t.Errorf("boundary word1 = %#x", w1)
	}
}

// TestIOVALayoutGolden pins the rIOVA packing of Figure 9d: offset in the
// low 30 bits, rentry in the next 18, rid in the top 16.
func TestIOVALayoutGolden(t *testing.T) {
	v := PackIOVA(0x3FF, 0x155, 0xAB)
	want := uint64(0x3FF) | uint64(0x155)<<30 | uint64(0xAB)<<48
	if uint64(v) != want {
		t.Errorf("packed = %#x, want %#x", uint64(v), want)
	}
	// Field widths: 30 + 18 + 16 = 64 bits exactly.
	if OffsetBits+REntryBits+RIDBits != 64 {
		t.Error("rIOVA fields do not fill 64 bits")
	}
	// Extremes survive.
	v = PackIOVA(MaxOffset-1, MaxRingSize-1, MaxRings-1)
	if v.Offset() != MaxOffset-1 || v.REntry() != MaxRingSize-1 || v.RID() != MaxRings-1 {
		t.Error("extreme field values corrupted")
	}
}

// TestIOVAUniquenessProperty: distinct (rid, rentry) pairs always pack to
// distinct IOVAs at offset zero — the property that makes the flat-table
// index usable as an address.
func TestIOVAUniquenessProperty(t *testing.T) {
	prop := func(r1, r2 uint16, e1, e2 uint32) bool {
		e1 &= MaxRingSize - 1
		e2 &= MaxRingSize - 1
		v1 := PackIOVA(0, e1, r1)
		v2 := PackIOVA(0, e2, r2)
		if r1 == r2 && e1 == e2 {
			return v1 == v2
		}
		return v1 != v2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestRPTEInMemoryLayout verifies the flat table is genuinely a 16-byte-per
// -entry array in physical memory: entry i of a ring lands at
// tablePA + 16*i, and the OS-visible write is what the hardware fetch sees.
func TestRPTEInMemoryLayout(t *testing.T) {
	_, hw, mm, _ := setup(t, true, 8)
	r := hw.Device(dev).Ring(0)

	want := rpte{physAddr: 0x7000, size: 321, dir: pci.DirToDevice, valid: true}
	hw.writeRPTE(r, 5, want)
	// Raw memory at the architectural offset.
	w0, err := mm.ReadU64(r.tablePA + 5*rpteBytes)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := mm.ReadU64(r.tablePA + 5*rpteBytes + 8)
	if err != nil {
		t.Fatal(err)
	}
	if decodeRPTE(w0, w1) != want {
		t.Error("in-memory layout does not match the architectural offsets")
	}
	if got := hw.readRPTE(r, 5); got != want {
		t.Error("hardware fetch disagrees with OS write")
	}
}
