package ring

import (
	"testing"
	"testing/quick"

	"riommu/internal/mem"
)

func newRing(t *testing.T, size uint32) (*Ring, *mem.PhysMem) {
	t.Helper()
	mm := mustMem(t, 64*mem.PageSize)
	r, err := New(mm, size)
	if err != nil {
		t.Fatal(err)
	}
	return r, mm
}

func TestNewValidation(t *testing.T) {
	mm := mustMem(t, 16*mem.PageSize)
	if _, err := New(mm, 1); err == nil {
		t.Error("size-1 ring should be rejected")
	}
	r, err := New(mm, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 8 || r.Bytes() != 8*DescBytes {
		t.Errorf("Size=%d Bytes=%d", r.Size(), r.Bytes())
	}
	if err := r.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPageRing(t *testing.T) {
	mm := mustMem(t, 64*mem.PageSize)
	before := mm.FreeFrames()
	r, err := New(mm, 1024) // 16 KiB => 4 frames
	if err != nil {
		t.Fatal(err)
	}
	// Slot 300 lives on the second page and must round-trip.
	want := Descriptor{Addr: 0xabcd, Len: 1500, Flags: FlagReady}
	r.WriteSlot(300, want)
	if got := r.ReadSlot(300); got != want {
		t.Errorf("slot 300 = %+v, want %+v", got, want)
	}
	if err := r.Free(); err != nil {
		t.Fatal(err)
	}
	if mm.FreeFrames() != before {
		t.Error("ring leaked frames")
	}
}

func TestPostConsumeReap(t *testing.T) {
	r, _ := newRing(t, 4)
	slot, err := r.Post(Descriptor{Addr: 0x1000, Len: 64})
	if err != nil {
		t.Fatal(err)
	}
	if slot != 0 || r.Pending() != 1 {
		t.Errorf("slot=%d pending=%d", slot, r.Pending())
	}
	// Device consumes: read, mark done, advance.
	d := r.ReadSlot(slot)
	if d.Flags&FlagReady == 0 {
		t.Error("posted descriptor not marked ready")
	}
	d.Flags |= FlagDone
	r.WriteSlot(slot, d)
	if err := r.AdvanceHead(); err != nil {
		t.Fatal(err)
	}
	// Driver reaps.
	got, err := r.Reap(slot)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != 0x1000 || got.Len != 64 {
		t.Errorf("reaped %+v", got)
	}
	// Reaping again fails: status was cleared.
	if _, err := r.Reap(slot); err == nil {
		t.Error("double reap should fail")
	}
}

func TestFullAndEmpty(t *testing.T) {
	r, _ := newRing(t, 4)
	if !r.Empty() || r.Full() {
		t.Error("fresh ring state wrong")
	}
	// Capacity is size-1.
	for i := 0; i < 3; i++ {
		if _, err := r.Post(Descriptor{Addr: uint64(i)}); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if !r.Full() {
		t.Error("ring should be full after size-1 posts")
	}
	if _, err := r.Post(Descriptor{}); err == nil {
		t.Error("post to full ring should fail")
	}
	if err := r.AdvanceHead(); err != nil {
		t.Fatal(err)
	}
	if r.Full() {
		t.Error("ring still full after a consume")
	}
	if _, err := r.Post(Descriptor{}); err != nil {
		t.Errorf("post after drain: %v", err)
	}
}

func TestAdvanceEmptyFails(t *testing.T) {
	r, _ := newRing(t, 4)
	if err := r.AdvanceHead(); err == nil {
		t.Error("advancing empty ring should fail")
	}
}

func TestDeviceAddressing(t *testing.T) {
	r, _ := newRing(t, 8)
	r.SetDeviceAddr(0x40000)
	if r.DeviceAddr() != 0x40000 {
		t.Error("DeviceAddr")
	}
	if r.DeviceSlotAddr(3) != 0x40000+3*DescBytes {
		t.Error("DeviceSlotAddr")
	}
	if r.DeviceSlotAddr(9) != 0x40000+1*DescBytes {
		t.Error("DeviceSlotAddr must wrap")
	}
}

func TestEncodeDecodeWords(t *testing.T) {
	prop := func(addr uint64, ln, flags uint32) bool {
		w0, w1 := EncodeWords(Descriptor{Addr: addr, Len: ln, Flags: flags})
		return DecodeWords(w0, w1) == Descriptor{Addr: addr, Len: ln, Flags: flags}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: FIFO order is preserved across arbitrary post/consume
// interleavings, including wraparound.
func TestFIFOProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		mm := mustMem(t, 16*mem.PageSize)
		r, err := New(mm, 8)
		if err != nil {
			return false
		}
		nextPost, nextConsume := uint64(0), uint64(0)
		for _, post := range ops {
			if post {
				if r.Full() {
					continue
				}
				if _, err := r.Post(Descriptor{Addr: nextPost}); err != nil {
					return false
				}
				nextPost++
			} else {
				if r.Empty() {
					continue
				}
				if r.ReadSlot(r.Head()).Addr != nextConsume {
					return false // out of order!
				}
				if err := r.AdvanceHead(); err != nil {
					return false
				}
				nextConsume++
			}
		}
		return r.Pending() == uint32(nextPost-nextConsume)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
