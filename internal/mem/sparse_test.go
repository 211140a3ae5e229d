package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// denseMem is the flat-array memory the sparse frame store replaced: one
// zeroed byte slice of the nominal size, frame allocation and pin state,
// and the poisoned cachelines. It decides what every PhysMem read must
// return and whether an operation must fail; the PFNs come from PhysMem.
type denseMem struct {
	data    []byte
	alloced []bool
	pins    []int
	poison  map[uint64]bool
}

func newDenseMem(frames int) *denseMem {
	d := &denseMem{
		data:    make([]byte, frames*PageSize),
		alloced: make([]bool, frames),
		pins:    make([]int, frames),
		poison:  map[uint64]bool{},
	}
	d.alloced[0] = true
	return d
}

// inRange reports whether [pa, pa+size) is in bounds on allocated frames.
func (d *denseMem) inRange(pa PA, size uint64) bool {
	end := uint64(pa) + size
	if end > uint64(len(d.data)) {
		return false
	}
	for f := PFNOf(pa); uint64(f.PA()) < end; f++ {
		if !d.alloced[f] {
			return false
		}
	}
	return true
}

func (d *denseMem) poisoned(pa PA, size uint64) bool {
	for l := uint64(pa) / CachelineSize; size > 0 && l <= (uint64(pa)+size-1)/CachelineSize; l++ {
		if d.poison[l] {
			return true
		}
	}
	return false
}

func (d *denseMem) clearPoison(pa PA, size uint64) {
	for l := uint64(pa) / CachelineSize; size > 0 && l <= (uint64(pa)+size-1)/CachelineSize; l++ {
		delete(d.poison, l)
	}
}

// alloc records that PhysMem handed out frames [f, f+n): zeroed and
// unpoisoned.
func (d *denseMem) alloc(f PFN, n int) {
	for g := f; g < f+PFN(n); g++ {
		d.alloced[g] = true
		clear(d.data[g.PA() : g.PA()+PageSize])
	}
	d.clearPoison(f.PA(), uint64(n)*PageSize)
}

// stubHook returns the corruption the test arms it with, and counts calls.
type stubHook struct {
	i             int
	mask          byte
	poison        bool
	reads, writes int
}

func (h *stubHook) ReadFault(pa PA, n int) (int, byte) {
	h.reads++
	return h.i, h.mask
}

func (h *stubHook) WriteFault(pa PA, n int) (int, byte, bool) {
	h.writes++
	return h.i, h.mask, h.poison
}

// view is a live Span view of frames [first, first+n), taken at pa.
type view struct {
	first PFN
	n     int
	pa    PA
	buf   []byte
}

// TestSparseMatchesDense runs seeded operation sequences against PhysMem and
// the dense reference: frame allocation and frees, bulk and typed reads and
// writes at page-crossing offsets, zero and nonzero fills, writes through
// Span views, pins, poison and an armed fault hook. Every read must match
// the reference and every operation must fail exactly when the reference
// says it must. Between lives the memory is released and rebuilt at the
// same size; each life first allocates every frame and requires it to read
// zero, and starts with the same four-frame Span. A life ends as a
// disposable world does, with whatever frames it still holds allocated and
// pinned, so the next life's zero sweep and frees check that a recycled
// backing forgets them. The test fails unless the seeds recycle backings,
// recycle one released with pinned frames, reuse a slab from an earlier
// life, cross pages with the armed hook and hit the poison and pin errors.
func TestSparseMatchesDense(t *testing.T) {
	var recycled, pinnedRecycled, slabReuse, crossingFaults, poisonErrs, pinErrs int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := 16 + rng.Intn(49)
		size := uint64(frames) * PageSize
		m := mustMem(t, size)
		hook := &stubHook{}
		held := false // the life just ended held pinned frames
		for life := 0; life < 3; life++ {
			if life > 0 {
				bk := m.bk
				m.Release()
				m = mustMem(t, size)
				if m.bk == bk {
					recycled++
					if held {
						pinnedRecycled++
					}
				}
			}
			m.SetFaultHook(hook)
			ref := newDenseMem(frames)
			sweepZero(t, m, frames)

			// The same first Span every life: a recycled backing still
			// holds its slab at frame 1.
			f, err := m.AllocFrames(4)
			if err != nil || f != 1 {
				t.Fatalf("seed %d life %d: AllocFrames(4) = %d, %v; want frame 1", seed, life, f, err)
			}
			ref.alloc(f, 4)
			old := m.slabs[f]
			buf, err := m.Span(f.PA()+16, 4*PageSize-16)
			if err != nil {
				t.Fatal(err)
			}
			if len(old) > 0 && &buf[0] == &old[16] {
				slabReuse++
			}
			views := []view{{first: f, n: 4, pa: f.PA() + 16, buf: buf}}

			live := func() []PFN {
				var l []PFN
				for g := 1; g < frames; g++ {
					if ref.alloced[g] {
						l = append(l, PFN(g))
					}
				}
				return l
			}
			// addr picks an address in a live frame (or frame 0), near
			// the frame's end half the time, and a size that may cross
			// into the next frame, allocated or not.
			addr := func() (PA, uint64) {
				f := PFN(0)
				if l := live(); len(l) > 0 && rng.Intn(8) != 0 {
					f = l[rng.Intn(len(l))]
				}
				off := uint64(rng.Intn(PageSize))
				if rng.Intn(2) == 0 {
					off = PageSize - 1 - uint64(rng.Intn(24))
				}
				n := uint64(1 + rng.Intn(64))
				if rng.Intn(6) == 0 {
					n = uint64(1 + rng.Intn(2*PageSize))
				}
				return f.PA() + PA(off), n
			}
			randBytes := func(n uint64) []byte {
				b := make([]byte, n)
				if rng.Intn(5) != 0 { // sometimes all zeros
					rng.Read(b)
				}
				return b
			}
			// arm sets the hook to corrupt a byte of an n-byte access half
			// the time, and to poison a quarter of the time, for one
			// operation.
			arm := func(n uint64) {
				if rng.Intn(2) == 0 {
					hook.i, hook.mask = rng.Intn(int(n)), 1<<rng.Intn(8)
				}
				hook.poison = rng.Intn(4) == 0
			}
			disarm := func() { hook.i, hook.mask, hook.poison = 0, 0, false }
			// dropViews forgets every view over frame g, which is no longer
			// allocated.
			dropViews := func(g PFN) {
				kept := views[:0]
				for _, v := range views {
					if g < v.first || g >= v.first+PFN(v.n) {
						kept = append(kept, v)
					}
				}
				views = kept
			}

			for op := 0; op < 400; op++ {
				switch r := rng.Intn(100); {
				case r < 8: // allocate
					n := 1
					if rng.Intn(3) == 0 {
						n = 2 + rng.Intn(4)
					}
					g, err := m.AllocFrames(n)
					if err != nil {
						continue // exhaustion; the allocator's order is pinned elsewhere
					}
					for h := g; h < g+PFN(n); h++ {
						if ref.alloced[h] {
							t.Fatalf("seed %d op %d: frame %d handed out twice", seed, op, h)
						}
					}
					ref.alloc(g, n)
					if n > 1 && rng.Intn(2) == 0 {
						// Span copies in what the run already holds.
						if rng.Intn(2) == 0 {
							src := randBytes(uint64(n) * PageSize)
							if err := m.Write(g.PA(), src); err != nil {
								t.Fatal(err)
							}
							copy(ref.data[g.PA():], src)
						}
						sz := uint64(n)*PageSize - uint64(rng.Intn(PageSize))
						buf, err := m.Span(g.PA(), sz)
						if err != nil {
							t.Fatalf("seed %d op %d: Span: %v", seed, op, err)
						}
						views = append(views, view{first: g, n: n, pa: g.PA(), buf: buf})
					}
				case r < 14: // free, sometimes an invalid frame
					g := PFN(rng.Intn(frames + 2))
					if l := live(); len(l) > 0 && rng.Intn(4) != 0 {
						g = l[rng.Intn(len(l))]
					}
					err := m.FreeFrame(g)
					ok := g > 0 && int(g) < frames && ref.alloced[g] && ref.pins[g] == 0
					if (err == nil) != ok {
						t.Fatalf("seed %d op %d: FreeFrame(%d) = %v; reference accepts: %v", seed, op, g, err, ok)
					}
					if int(g) < frames && g > 0 && ref.alloced[g] && ref.pins[g] > 0 {
						pinErrs++
					}
					if ok {
						ref.alloced[g] = false
						dropViews(g)
					}
				case r < 20: // pin or unpin
					pa, _ := addr()
					g := PFNOf(pa)
					if g == 0 {
						continue
					}
					if rng.Intn(2) == 0 {
						if err := m.Pin(pa); err != nil {
							t.Fatal(err)
						}
						ref.pins[g]++
					} else {
						err := m.Unpin(pa)
						if (err == nil) != (ref.pins[g] > 0) {
							t.Fatalf("seed %d op %d: Unpin = %v with %d pins", seed, op, err, ref.pins[g])
						}
						if err == nil {
							ref.pins[g]--
						}
					}
					if m.Pinned(pa) != (ref.pins[g] > 0) {
						t.Fatalf("seed %d op %d: Pinned = %v with %d pins", seed, op, m.Pinned(pa), ref.pins[g])
					}
				case r < 24: // poison a line
					pa, _ := addr()
					m.PoisonCacheline(pa)
					ref.poison[uint64(pa)/CachelineSize] = true
				case r < 40: // bulk write, hook armed
					pa, n := addr()
					src := randBytes(n)
					arm(n)
					w := hook.writes
					err := m.Write(pa, src)
					if ok := ref.inRange(pa, n); (err == nil) != ok {
						t.Fatalf("seed %d op %d: Write(%#x, %d) = %v; reference accepts: %v", seed, op, pa, n, err, ok)
					}
					if err == nil {
						if hook.writes != w+1 {
							t.Fatalf("seed %d op %d: Write consulted the hook %d times", seed, op, hook.writes-w)
						}
						copy(ref.data[pa:], src)
						if hook.mask != 0 {
							// The old in-place flip: stored[i] ^= mask.
							ref.data[uint64(pa)+uint64(hook.i)] ^= hook.mask
							if PFNOf(pa+PA(hook.i)) != PFNOf(pa) {
								crossingFaults++
							}
						}
						ref.clearPoison(pa, n)
						if hook.poison {
							ref.poison[uint64(pa)/CachelineSize] = true
						}
					}
					disarm()
				case r < 56: // bulk read, hook armed
					pa, n := addr()
					arm(n)
					inRange := ref.inRange(pa, n)
					ok := inRange && !ref.poisoned(pa, n)
					if inRange && !ok {
						poisonErrs++
					}
					var got []byte
					var err error
					if rng.Intn(2) == 0 {
						got, err = m.Read(pa, n)
					} else {
						got = make([]byte, n)
						for i := range got {
							got[i] = 0xee // ReadInto must overwrite, zeros included
						}
						err = m.ReadInto(pa, got)
					}
					if (err == nil) != ok {
						t.Fatalf("seed %d op %d: read(%#x, %d) = %v; reference accepts: %v", seed, op, pa, n, err, ok)
					}
					if ok {
						want := append([]byte(nil), ref.data[pa:uint64(pa)+n]...)
						if hook.mask != 0 {
							want[hook.i] ^= hook.mask
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("seed %d op %d: read(%#x, %d) differs from the reference", seed, op, pa, n)
						}
					}
					disarm()
				case r < 72: // typed access at a possibly page-crossing offset
					pa, _ := addr()
					calls := hook.reads + hook.writes
					ok := ref.inRange(pa, 8)
					if rng.Intn(2) == 0 {
						v := rng.Uint64()
						if err := m.WriteU64(pa, v); (err == nil) != ok {
							t.Fatalf("seed %d op %d: WriteU64(%#x) = %v; reference accepts: %v", seed, op, pa, err, ok)
						}
						if ok {
							binary.LittleEndian.PutUint64(ref.data[pa:], v)
						}
					} else {
						got, err := m.ReadU64(pa)
						if (err == nil) != ok {
							t.Fatalf("seed %d op %d: ReadU64(%#x) = %v; reference accepts: %v", seed, op, pa, err, ok)
						}
						if ok {
							if want := binary.LittleEndian.Uint64(ref.data[pa:]); got != want {
								t.Fatalf("seed %d op %d: ReadU64(%#x) = %#x, reference %#x", seed, op, pa, got, want)
							}
						}
					}
					if hook.reads+hook.writes != calls {
						t.Fatalf("seed %d op %d: a typed access consulted the fault hook", seed, op)
					}
				case r < 80: // fill, zero or not
					pa, n := addr()
					b := byte(0)
					if rng.Intn(2) == 0 {
						b = byte(1 + rng.Intn(255))
					}
					err := m.Fill(pa, n, b)
					if ok := ref.inRange(pa, n); (err == nil) != ok {
						t.Fatalf("seed %d op %d: Fill(%#x, %d) = %v; reference accepts: %v", seed, op, pa, n, err, ok)
					}
					if err == nil {
						for i := uint64(0); i < n; i++ {
							ref.data[uint64(pa)+i] = b
						}
						ref.clearPoison(pa, n)
					}
				default: // write through a live view
					if len(views) == 0 {
						continue
					}
					v := views[rng.Intn(len(views))]
					lo := rng.Intn(len(v.buf))
					hi := lo + 1 + rng.Intn(min(len(v.buf)-lo, 2*PageSize))
					src := randBytes(uint64(hi - lo))
					copy(v.buf[lo:hi], src)
					copy(ref.data[int(v.pa)+lo:], src)
				}
				// Every live view aliases memory: it shows the reference's
				// bytes, whichever accessor wrote them.
				for _, v := range views {
					if !bytes.Equal(v.buf, ref.data[v.pa:int(v.pa)+len(v.buf)]) {
						t.Fatalf("seed %d op %d: Span view at %#x differs from the reference", seed, op, v.pa)
					}
				}
			}
			held = false
			for g := 1; g < frames; g++ {
				if ref.alloced[g] && ref.pins[g] > 0 {
					held = true
				}
			}
		}
		m.Release()
	}
	t.Logf("recycled %d (%d released holding pinned frames), slab reuse %d, page-crossing write faults %d, poisoned reads %d, pinned frees %d",
		recycled, pinnedRecycled, slabReuse, crossingFaults, poisonErrs, pinErrs)
	if recycled == 0 || pinnedRecycled == 0 || slabReuse == 0 || crossingFaults == 0 || poisonErrs == 0 || pinErrs == 0 {
		t.Fatal("the seeded sequences no longer reach every store state")
	}
}

// sweepZero allocates every frame of a fresh PhysMem, requires each, and
// frame 0, to read zero, then frees them all again.
func sweepZero(t *testing.T, m *PhysMem, frames int) {
	t.Helper()
	zero := make([]byte, PageSize)
	for g := 0; g < frames; g++ {
		f := PFN(0)
		if g > 0 {
			var err error
			if f, err = m.AllocFrame(); err != nil {
				t.Fatalf("sweep: AllocFrame: %v", err)
			}
		}
		if b, err := m.Read(f.PA(), PageSize); err != nil || !bytes.Equal(b, zero) {
			t.Fatalf("sweep: frame %d of a new memory does not read zero (%v)", f, err)
		}
	}
	for f := PFN(1); int(f) < frames; f++ {
		if err := m.FreeFrame(f); err != nil {
			t.Fatalf("sweep: FreeFrame(%d): %v", f, err)
		}
	}
}

// TestWriteFaultMaskCrossesPages writes 3,000 bytes across two frames that
// were written separately, so their pages are not adjacent, and arms the
// hook to corrupt a byte on the second page: the byte the old in-place flip
// of the stored bytes hit must be the one that changes.
func TestWriteFaultMaskCrossesPages(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	f, err := m.AllocFrames(2)
	if err != nil {
		t.Fatal(err)
	}
	// Give the frames pages in reverse order.
	for _, g := range []PFN{f + 1, f} {
		if err := m.WriteU64(g.PA(), 1); err != nil {
			t.Fatal(err)
		}
	}
	src := make([]byte, 3000)
	for i := range src {
		src[i] = byte(i)
	}
	pa := f.PA() + PageSize - 1000
	hook := &stubHook{i: 2500, mask: 0x10}
	m.SetFaultHook(hook)
	if err := m.Write(pa, src); err != nil {
		t.Fatal(err)
	}
	m.SetFaultHook(nil)
	want := append([]byte(nil), src...)
	want[2500] ^= 0x10
	got, err := m.Read(pa, uint64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("byte %d reads %#x, want %#x", i, got[i], want[i])
			}
		}
	}
}
