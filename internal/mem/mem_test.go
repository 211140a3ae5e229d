package mem

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(PageSize + 1); err == nil {
		t.Error("New(PageSize+1) should fail")
	}
	m, err := New(16 * PageSize)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Size() != 16*PageSize {
		t.Errorf("Size = %d", m.Size())
	}
	if m.Frames() != 16 {
		t.Errorf("Frames = %d", m.Frames())
	}
	// Frame 0 reserved.
	if m.FreeFrames() != 15 {
		t.Errorf("FreeFrames = %d, want 15", m.FreeFrames())
	}
}

func TestNewTooSmallErrors(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) did not return an error")
	}
}

func TestAllocFrameZeroesAndExhaustion(t *testing.T) {
	m := mustMem(t, 4*PageSize) // frames 1..3 usable
	seen := map[PFN]bool{}
	for i := 0; i < 3; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatalf("AllocFrame %d: %v", i, err)
		}
		if f == 0 {
			t.Fatal("allocated reserved frame 0")
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
		b, err := m.Read(f.PA(), PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range b {
			if x != 0 {
				t.Fatal("frame not zeroed")
			}
		}
	}
	if _, err := m.AllocFrame(); err == nil {
		t.Error("expected exhaustion error")
	}
}

func TestAllocFrameReZeroesRecycled(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	if err := m.Write(f.PA(), []byte{0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	// Drain and find the recycled frame again.
	for i := 0; i < 3; i++ {
		g, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := m.Read(g.PA(), 2)
		if b[0] != 0 || b[1] != 0 {
			t.Fatalf("recycled frame %d not zeroed", g)
		}
	}
}

func TestAllocFramesContiguous(t *testing.T) {
	m := mustMem(t, 16*PageSize)
	f, err := m.AllocFrames(4)
	if err != nil {
		t.Fatalf("AllocFrames(4): %v", err)
	}
	// The run must be contiguous and writable end to end.
	if err := m.Fill(f.PA(), 4*PageSize, 0xab); err != nil {
		t.Fatalf("Fill across run: %v", err)
	}
	if _, err := m.AllocFrames(0); err == nil {
		t.Error("AllocFrames(0) should fail")
	}
	if _, err := m.AllocFrames(100); err == nil {
		t.Error("AllocFrames(100) should fail on 16-frame memory")
	}
}

func TestAllocFramesSkipsHoles(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	var frames []PFN
	for i := 0; i < 7; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// Free frames 2,3 and 5,6 (two 2-frame holes) plus a singleton.
	for _, f := range []PFN{frames[1], frames[2], frames[4], frames[5]} {
		if err := m.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	f, err := m.AllocFrames(2)
	if err != nil {
		t.Fatalf("AllocFrames(2) with holes available: %v", err)
	}
	if err := m.Fill(f.PA(), 2*PageSize, 1); err != nil {
		t.Fatalf("hole not contiguous: %v", err)
	}
	if _, err := m.AllocFrames(3); err == nil {
		t.Error("AllocFrames(3) should fail: only 2-frame holes remain")
	}
}

func TestFreeFrameErrors(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	if err := m.FreeFrame(0); err == nil {
		t.Error("freeing reserved frame 0 should fail")
	}
	if err := m.FreeFrame(2); err == nil {
		t.Error("freeing unallocated frame should fail")
	}
	if err := m.FreeFrame(99); err == nil {
		t.Error("freeing out-of-range frame should fail")
	}
	f, _ := m.AllocFrame()
	if err := m.FreeFrame(f); err != nil {
		t.Errorf("FreeFrame: %v", err)
	}
	if err := m.FreeFrame(f); err == nil {
		t.Error("double free should fail")
	}
}

func TestPinning(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	pa := f.PA() + 100

	if m.Pinned(pa) {
		t.Error("fresh frame reported pinned")
	}
	if err := m.Pin(pa); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if !m.Pinned(pa) {
		t.Error("Pinned = false after Pin")
	}
	if err := m.FreeFrame(f); err == nil {
		t.Error("freeing pinned frame should fail")
	}
	if err := m.Pin(pa); err != nil { // pin count 2
		t.Fatal(err)
	}
	if err := m.Unpin(pa); err != nil {
		t.Fatal(err)
	}
	if !m.Pinned(pa) {
		t.Error("frame unpinned too early (count should be 1)")
	}
	if err := m.Unpin(pa); err != nil {
		t.Fatal(err)
	}
	if m.Pinned(pa) {
		t.Error("frame still pinned after balanced unpins")
	}
	if err := m.Unpin(pa); err == nil {
		t.Error("unpinning unpinned frame should fail")
	}
	if err := m.FreeFrame(f); err != nil {
		t.Errorf("FreeFrame after unpin: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	pa := f.PA()

	want := []byte{1, 2, 3, 4, 5}
	if err := m.Write(pa+10, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(pa+10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Read = %v, want %v", got, want)
		}
	}
	dst := make([]byte, 5)
	if err := m.ReadInto(pa+10, dst); err != nil {
		t.Fatal(err)
	}
	if dst[4] != 5 {
		t.Errorf("ReadInto = %v", dst)
	}
}

// recHook records the fault hook's read draws and corrupts nothing.
type recHook struct{ reads [][2]uint64 }

func (h *recHook) ReadFault(pa PA, n int) (int, byte) {
	h.reads = append(h.reads, [2]uint64{uint64(pa), uint64(n)})
	return 0, 0
}

func (h *recHook) WriteFault(PA, int) (int, byte, bool) { return 0, 0, false }

// TestReadDiscardChecksLikeRead: ReadDiscard fails exactly where Read does,
// with the same error, and the fault hook draws for it exactly as for a
// copy, so a fault schedule cannot tell a discarded read from a kept one.
func TestReadDiscardChecksLikeRead(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	f, _ := m.AllocFrames(2) // frames 1 and 2; frame 3 stays unallocated
	m.PoisonCacheline(f.PA() + PageSize + 2*CachelineSize)
	for _, c := range []struct {
		name string
		pa   PA
		size uint64
		fail bool
	}{
		{"one frame", f.PA() + 8, 100, false},
		{"page-crossing", f.PA() + PageSize - 10, 20, false},
		{"empty", f.PA(), 0, false},
		{"poisoned", f.PA() + PageSize + 2*CachelineSize + 8, 8, true},
		{"into an unallocated frame", f.PA() + 2*PageSize - 4, 8, true},
		{"past the end", PA(m.Size() - 4), 8, true},
	} {
		var copyHook, discardHook recHook
		m.SetFaultHook(&copyHook)
		_, copyErr := m.Read(c.pa, c.size)
		m.SetFaultHook(&discardHook)
		discardErr := m.ReadDiscard(c.pa, c.size)
		drew := len(copyHook.reads) > 0
		if (copyErr != nil) != c.fail || drew == c.fail {
			t.Fatalf("%s: Read error %v after %d draws; the case is mis-built", c.name, copyErr, len(copyHook.reads))
		}
		if fmt.Sprint(copyErr) != fmt.Sprint(discardErr) {
			t.Errorf("%s: ReadDiscard error %v, Read error %v", c.name, discardErr, copyErr)
		}
		if !reflect.DeepEqual(copyHook.reads, discardHook.reads) {
			t.Errorf("%s: ReadDiscard drew %v, Read drew %v", c.name, discardHook.reads, copyHook.reads)
		}
	}
	m.SetFaultHook(nil)
}

func TestTypedAccessors(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	pa := f.PA()

	if err := m.WriteU64(pa, 0xdeadbeefcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(pa)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafebabe {
		t.Errorf("ReadU64 = %#x", v)
	}
}

func TestAccessToUnallocatedFails(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	// Frame 2 not allocated.
	if _, err := m.Read(PA(2*PageSize), 4); err == nil {
		t.Error("read of unallocated frame should fail")
	}
	if err := m.Write(PA(2*PageSize), []byte{1}); err == nil {
		t.Error("write to unallocated frame should fail")
	}
	if _, err := m.ReadU64(PA(m.Size() - 4)); err == nil {
		t.Error("read past end should fail")
	}
	// Range spanning allocated into unallocated must fail.
	f, _ := m.AllocFrame()
	if err := m.Fill(f.PA(), 2*PageSize, 1); err == nil {
		t.Error("fill spanning into unallocated frame should fail")
	}
	var ae *AccessError
	_, err := m.Read(PA(2*PageSize), 4)
	if !errors.As(err, &ae) {
		t.Errorf("error type = %T, want *AccessError", err)
	} else if ae.Error() == "" {
		t.Error("empty error string")
	}
}

func TestPFNConversions(t *testing.T) {
	if PFN(3).PA() != PA(3*PageSize) {
		t.Error("PFN.PA wrong")
	}
	if PFNOf(PA(3*PageSize+17)) != 3 {
		t.Error("PFNOf wrong")
	}
}

// Property: alloc/free/alloc cycles never hand out frame 0, never double
// allocate, and FreeFrames is conserved.
func TestAllocFreeProperty(t *testing.T) {
	f := func(ops []bool) bool {
		m := mustMem(t, 32*PageSize)
		live := map[PFN]bool{}
		var order []PFN
		for _, alloc := range ops {
			if alloc {
				fr, err := m.AllocFrame()
				if err != nil {
					if len(live) != 31 {
						return false // exhaustion only when truly full
					}
					continue
				}
				if fr == 0 || live[fr] {
					return false
				}
				live[fr] = true
				order = append(order, fr)
			} else if len(order) > 0 {
				fr := order[len(order)-1]
				order = order[:len(order)-1]
				if err := m.FreeFrame(fr); err != nil {
					return false
				}
				delete(live, fr)
			}
		}
		return m.FreeFrames() == 31-len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: writes round-trip through reads at arbitrary in-frame offsets.
func TestWriteReadProperty(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	f, _ := m.AllocFrame()
	base := f.PA()
	prop := func(off uint16, data []byte) bool {
		o := uint64(off) % (PageSize - 256)
		if len(data) > 256 {
			data = data[:256]
		}
		if err := m.Write(base+PA(o), data); err != nil {
			return false
		}
		got, err := m.Read(base+PA(o), uint64(len(data)))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
