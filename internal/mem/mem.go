// Package mem implements the simulated physical memory substrate: a frame
// allocator over a byte-addressable space, page pinning, and typed
// accessors. All simulated structures that the (r)IOMMU hardware reads —
// radix page tables, flat rIOMMU tables, DMA descriptors, target buffers —
// live inside a PhysMem so that translations and DMAs are exercised against
// real bytes rather than mocked.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Architectural constants shared by the whole simulator (Intel x86-64 / VT-d).
const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the 4 KiB page size.
	PageSize = 1 << PageShift
	// PageMask masks the offset-within-page bits.
	PageMask = PageSize - 1
	// CachelineSize is the size of one CPU cacheline.
	CachelineSize = 64
)

// PA is a physical address in the simulated memory.
type PA uint64

// PFN is a physical frame number (PA >> PageShift).
type PFN uint64

// PA returns the base physical address of the frame.
func (p PFN) PA() PA { return PA(p) << PageShift }

// PFNOf returns the frame number containing pa.
func PFNOf(pa PA) PFN { return PFN(pa >> PageShift) }

// AccessError describes an invalid physical memory access.
type AccessError struct {
	Op   string // "read", "write", "alloc", "free", "pin", "unpin"
	Addr PA
	Size uint64
	Why  string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s [pa=%#x size=%d]: %s", e.Op, e.Addr, e.Size, e.Why)
}

// FaultHook is the memory fault-injection interface (implemented by
// faults.Engine). It is consulted only on the bulk Read, ReadInto,
// ReadDiscard and Write paths — the data paths DMAs and payload copies use
// — so metadata accessed through the typed accessors (page tables, queue
// cursors) stays intact and descriptor corruption is modeled separately at
// the device layer.
//
// Neither method sees the bytes: each returns the index of a byte and a mask
// that memory XORs into it, or a zero mask to leave the data intact. A
// buffer passed to ReadInto or Write therefore does not escape to the heap,
// and a write that spans two frames' separate pages is corrupted by memory,
// which knows where each byte is stored.
type FaultHook interface {
	// ReadFault may corrupt the n bytes just read from pa.
	ReadFault(pa PA, n int) (i int, mask byte)
	// WriteFault may corrupt the n bytes just stored at pa, and reports
	// whether the cacheline at pa must be poisoned.
	WriteFault(pa PA, n int) (i int, mask byte, poison bool)
}

// page is one frame's bytes.
type page [PageSize]byte

// PhysMem is a simulated physical memory with a simple page-frame allocator.
// Frame 0 is reserved (so a zero PA can act as a null pointer in page
// tables). PhysMem is not safe for concurrent use.
//
// Storage is sparse: a per-frame page directory. A frame with no page reads
// as zeros; the first Write, typed write or nonzero Fill gives it a zeroed
// page. Span gives its range one contiguous slab and points the range's
// directory entries into it, so the view and every other accessor see the
// same bytes. A world therefore costs the pages it writes, not its nominal
// size.
//
// The free list is lazy: frames at or above the watermark have never been
// allocated and are handed out in ascending order without ever being
// materialized in a slice, while the free stack holds only explicitly freed
// frames. The observable allocation order is byte-identical to the eager
// descending free list this replaces (TestAllocOrderMatchesEager pins it);
// the one operation whose legacy behavior a watermark cannot mirror —
// reserving a specific never-allocated frame while freed frames exist —
// materializes the full legacy list first and proceeds identically.
//
// AllocFrames's first-fit scan starts at a first-free cursor, low: every
// frame in [1, low) is allocated. Frames below low can hold no free run, so
// skipping them returns the same PFN a scan from frame 1 would.
type PhysMem struct {
	pages     []*page        // frame directory; a nil page reads as zeros
	slabs     map[PFN][]byte // Span slabs by first frame
	frames    int
	free      []PFN // LIFO stack of explicitly freed frames
	watermark PFN   // lazy mode: lowest never-allocated frame
	lazy      bool  // free list not materialized (the common case)
	low       PFN   // first-free cursor: frames [1, low) are all allocated
	alloced   []bool
	pinCount  []uint32
	// dirty[f]: frame f's page may hold nonzero bytes. Write, a nonzero
	// Fill, the typed writes and Span (up front, for its view) set it, so
	// a clear bit is exact: the frame has no page or a zeroed one.
	dirty []bool

	bk *backing // pooled backing this instance borrowed

	hook   FaultHook
	poison map[uint64]struct{} // poisoned cacheline indices
}

// backing is the pooled per-instance state recycled between PhysMem worlds
// of the same size: the page directory, with the pages and Span slabs
// earlier lives gave it, the frame-metadata arrays and the free stack's
// storage. Reuse is observation-equivalent to a fresh directory: every
// read/write path checks that the touched frames are allocated,
// AllocFrame/AllocFrames zero each dirty frame's page as it is handed out,
// and New clears the metadata prefix the previous life touched. The dirty
// array persists across lives — it is precisely the memory of which
// recycled pages still hold stale bytes — so a frame that was allocated but
// never written (posted-but-unused RX buffers are the bulk of a NIC world)
// costs nothing in the next life. A world of the same shape writes the same
// frames and spans the same runs, so it finds its pages and slabs already
// in place.
//
// Pooling exists because experiment and campaign grids build one world per
// cell. A sync.Pool is emptied by the garbage collector, so recycling never
// outlives the collections that would free the backing anyway.
type backing struct {
	pages    []*page
	slabs    map[PFN][]byte
	free     []PFN // an earlier life's free stack, kept for its capacity
	alloced  []bool
	pinCount []uint32
	dirty    []bool
	hi       int // frames [0, hi) saw metadata traffic in earlier lives
}

// pools buckets backings by exact byte size, so a 128 MiB NIC world and a
// 64 MiB block world recycle independently instead of evicting each other.
var pools sync.Map // uint64 (size) -> *sync.Pool

func pool(size uint64) *sync.Pool {
	p, _ := pools.LoadOrStore(size, &sync.Pool{})
	return p.(*sync.Pool)
}

func getBacking(size uint64) *backing {
	frames := int(size / PageSize)
	if v := pool(size).Get(); v != nil {
		b := v.(*backing)
		// Clear only the metadata prefix earlier lives touched: the
		// watermark allocator hands frames out in ascending order, so
		// nothing above b.hi was ever set.
		clear(b.alloced[:b.hi])
		clear(b.pinCount[:b.hi])
		return b
	}
	return &backing{
		pages:    make([]*page, frames),
		alloced:  make([]bool, frames),
		pinCount: make([]uint32, frames),
		dirty:    make([]bool, frames),
	}
}

// New creates a physical memory of the given size in bytes, which must be a
// positive multiple of PageSize. It allocates only the page directory and
// frame metadata, not the bytes.
func New(size uint64) (*PhysMem, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, &AccessError{Op: "alloc", Size: size, Why: "size must be a positive multiple of the page size"}
	}
	bk := getBacking(size)
	m := &PhysMem{
		pages:     bk.pages,
		slabs:     bk.slabs,
		free:      bk.free[:0],
		frames:    int(size / PageSize),
		watermark: 1, // frame 0 is reserved
		lazy:      true,
		low:       1,
		alloced:   bk.alloced,
		pinCount:  bk.pinCount,
		dirty:     bk.dirty,
		bk:        bk,
	}
	m.alloced[0] = true
	// Frame 0 is readable (it is marked allocated) but never handed out, so
	// it must read as zeros even on a recycled backing.
	m.clearFrame(0)
	return m, nil
}

// clearFrame zeroes frame f's page unless it is already known zero.
func (m *PhysMem) clearFrame(f PFN) {
	if m.dirty[f] {
		clear(m.pages[f][:])
		m.dirty[f] = false
	}
}

// pageOf returns frame f's page, giving the frame a zeroed page first if it
// has none.
func (m *PhysMem) pageOf(f PFN) *page {
	p := m.pages[f]
	if p == nil {
		p = new(page)
		m.pages[f] = p
	}
	return p
}

// Release returns the backing — directory, pages, slabs and metadata — to
// the per-size pool, so the next PhysMem of the same size reuses the pages
// its frames wrote instead of allocating them again. The PhysMem — and
// every component holding it — must not be used afterwards. Releasing is
// optional; an unreleased PhysMem is simply garbage-collected.
func (m *PhysMem) Release() {
	if m.pages == nil {
		return
	}
	hi := int(m.watermark)
	if !m.lazy {
		// A materialized free list hands frames out from the top, so the
		// whole metadata range may have been touched.
		hi = m.frames
	}
	if hi > m.bk.hi {
		m.bk.hi = hi
	}
	// Keep only the slabs a later life can reuse whole.
	// maporder: each slab is kept or deleted on its own test, and deleting
	// the current key during a range is safe.
	for first, s := range m.slabs {
		if !m.backedBy(first, len(s)/PageSize, s) {
			delete(m.slabs, first)
		}
	}
	m.bk.slabs = m.slabs
	m.bk.free = m.free
	pool(uint64(m.frames) * PageSize).Put(m.bk)
	m.pages = nil
	m.bk = nil
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (m *PhysMem) SetFaultHook(h FaultHook) { m.hook = h }

// PoisonCacheline marks the cacheline containing pa poisoned: bulk reads
// covering it fail with an AccessError until the line is rewritten (the
// semantics of an uncorrectable ECC error).
func (m *PhysMem) PoisonCacheline(pa PA) {
	if m.poison == nil {
		m.poison = make(map[uint64]struct{})
	}
	m.poison[uint64(pa)/CachelineSize] = struct{}{}
}

// ClearPoison removes poison from every cacheline the range touches.
// Writes, fills, and frame allocation clear poison implicitly.
func (m *PhysMem) ClearPoison(pa PA, size uint64) {
	if len(m.poison) == 0 || size == 0 {
		return
	}
	first := uint64(pa) / CachelineSize
	last := (uint64(pa) + size - 1) / CachelineSize
	for l := first; l <= last; l++ {
		delete(m.poison, l)
	}
}

// PoisonedRange reports whether any cacheline in [pa, pa+size) is poisoned.
func (m *PhysMem) PoisonedRange(pa PA, size uint64) bool {
	if len(m.poison) == 0 || size == 0 {
		return false
	}
	first := uint64(pa) / CachelineSize
	last := (uint64(pa) + size - 1) / CachelineSize
	for l := first; l <= last; l++ {
		if _, ok := m.poison[l]; ok {
			return true
		}
	}
	return false
}

// checkPoison fails a read overlapping a poisoned cacheline.
func (m *PhysMem) checkPoison(pa PA, size uint64) error {
	if m.PoisonedRange(pa, size) {
		return &AccessError{Op: "read", Addr: pa, Size: size, Why: "poisoned cacheline (uncorrectable error)"}
	}
	return nil
}

// Size returns the total size of the memory in bytes.
func (m *PhysMem) Size() uint64 { return uint64(m.frames) * PageSize }

// Frames returns the total number of page frames.
func (m *PhysMem) Frames() int { return m.frames }

// FreeFrames returns the number of currently unallocated frames.
func (m *PhysMem) FreeFrames() int {
	if m.lazy {
		return len(m.free) + m.frames - int(m.watermark)
	}
	return len(m.free)
}

// popFrame takes the next free frame in legacy order: the most recently
// freed frame first, then never-allocated frames in ascending order.
func (m *PhysMem) popFrame() (PFN, bool) {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f, true
	}
	if m.lazy && int(m.watermark) < m.frames {
		f := m.watermark
		m.watermark++
		return f, true
	}
	return 0, false
}

// AllocFrame allocates one zeroed page frame.
func (m *PhysMem) AllocFrame() (PFN, error) {
	f, ok := m.popFrame()
	if !ok {
		return 0, &AccessError{Op: "alloc", Why: "out of physical frames"}
	}
	m.alloced[f] = true
	m.clearFrame(f)
	m.ClearPoison(f.PA(), PageSize)
	return f, nil
}

// AllocFrames allocates n physically contiguous zeroed frames and returns the
// first PFN. Contiguity is required for multi-page rings and flat tables,
// which take one contiguous view of the run with Span.
func (m *PhysMem) AllocFrames(n int) (PFN, error) {
	if n <= 0 {
		return 0, &AccessError{Op: "alloc", Why: "nonpositive frame count"}
	}
	if n == 1 {
		return m.AllocFrame()
	}
	// First-fit scan for a contiguous run of free frames, from the cursor.
	// Allocated frames at the front of the scan, and a run taken at the
	// cursor, move the cursor past them.
	run := 0
	for f := m.low; int(f) < m.frames; f++ {
		if m.alloced[f] {
			if f == m.low {
				m.low++
			}
			run = 0
			continue
		}
		run++
		if run == n {
			first := f - PFN(n) + 1
			for i := 0; i < n; i++ {
				m.takeFrame(first + PFN(i))
				m.clearFrame(first + PFN(i))
			}
			if first == m.low {
				m.low = f + 1
			}
			m.ClearPoison(first.PA(), uint64(n)*PageSize)
			return first, nil
		}
	}
	return 0, &AccessError{Op: "alloc", Size: uint64(n) * PageSize, Why: "no contiguous run of free frames"}
}

// takeFrame removes f from the free list and marks it allocated.
func (m *PhysMem) takeFrame(f PFN) {
	if m.lazy && f >= m.watermark {
		if f == m.watermark && len(m.free) == 0 {
			// Legacy list's last element is exactly the watermark frame, so
			// the swap-remove degenerates to a pop.
			m.watermark++
			m.alloced[f] = true
			return
		}
		// Reserving a never-allocated frame out of order perturbs the legacy
		// list in a way a watermark cannot express; fall back to the eager
		// representation (rare: a contiguous multi-frame allocation after
		// frees, e.g. a device re-attach during recovery).
		m.materialize()
	}
	for i, g := range m.free {
		if g == f {
			m.free[i] = m.free[len(m.free)-1]
			m.free = m.free[:len(m.free)-1]
			break
		}
	}
	m.alloced[f] = true
}

// materialize converts the lazy free list into the legacy eager layout: the
// never-allocated frames in descending order followed by the freed-frame
// stack in push order. Pop and swap-remove then behave exactly as the
// original implementation did.
func (m *PhysMem) materialize() {
	full := make([]PFN, 0, m.frames-int(m.watermark)+len(m.free))
	for f := PFN(m.frames - 1); f >= m.watermark; f-- {
		full = append(full, f)
	}
	full = append(full, m.free...)
	m.free = full
	m.lazy = false
}

// FreeFrame releases a previously allocated frame. Freeing a pinned or
// unallocated frame is an error. The frame keeps its page, which is zeroed
// when the frame is allocated again.
func (m *PhysMem) FreeFrame(f PFN) error {
	if err := m.checkFrame("free", f); err != nil {
		return err
	}
	if m.pinCount[f] > 0 {
		return &AccessError{Op: "free", Addr: f.PA(), Why: "frame is pinned"}
	}
	m.alloced[f] = false
	m.free = append(m.free, f)
	if f < m.low {
		m.low = f
	}
	return nil
}

// Pin increments the pin count of the frame containing pa. Pinned frames
// model pages locked for in-flight DMA (the paper notes target pages must be
// pinned since DMAs are not restartable).
func (m *PhysMem) Pin(pa PA) error {
	f := PFNOf(pa)
	if err := m.checkFrame("pin", f); err != nil {
		return err
	}
	m.pinCount[f]++
	return nil
}

// Unpin decrements the pin count of the frame containing pa.
func (m *PhysMem) Unpin(pa PA) error {
	f := PFNOf(pa)
	if err := m.checkFrame("unpin", f); err != nil {
		return err
	}
	if m.pinCount[f] == 0 {
		return &AccessError{Op: "unpin", Addr: pa, Why: "frame is not pinned"}
	}
	m.pinCount[f]--
	return nil
}

// Pinned reports whether the frame containing pa has a nonzero pin count.
func (m *PhysMem) Pinned(pa PA) bool {
	f := PFNOf(pa)
	return int(f) < m.frames && m.pinCount[f] > 0
}

func (m *PhysMem) checkFrame(op string, f PFN) error {
	if int(f) >= m.frames {
		return &AccessError{Op: op, Addr: f.PA(), Why: "frame out of range"}
	}
	if f == 0 {
		return &AccessError{Op: op, Addr: 0, Why: "frame 0 is reserved"}
	}
	if !m.alloced[f] {
		return &AccessError{Op: op, Addr: f.PA(), Why: "frame not allocated"}
	}
	return nil
}

func (m *PhysMem) checkRange(op string, pa PA, size uint64) error {
	end := uint64(pa) + size
	if end < uint64(pa) || end > uint64(len(m.pages))*PageSize {
		return &AccessError{Op: op, Addr: pa, Size: size, Why: "out of bounds"}
	}
	// Every touched frame must be allocated.
	for f := PFNOf(pa); uint64(f.PA()) < end; f++ {
		if !m.alloced[f] {
			return &AccessError{Op: op, Addr: pa, Size: size, Why: fmt.Sprintf("frame %#x not allocated", uint64(f))}
		}
	}
	return nil
}

// readAt copies the bytes at pa into dst, one frame at a time; a frame
// without a page reads as zeros. The caller has checked the range.
func (m *PhysMem) readAt(pa PA, dst []byte) {
	for len(dst) > 0 {
		off := pa & PageMask
		var n int
		if p := m.pages[PFNOf(pa)]; p != nil {
			n = copy(dst, p[off:])
		} else {
			n = min(len(dst), int(PageSize-off))
			clear(dst[:n])
		}
		dst = dst[n:]
		pa += PA(n)
	}
}

// writeAt copies src into memory at pa, one frame at a time, giving each
// frame a page if it has none and marking it dirty. The caller has checked
// the range.
func (m *PhysMem) writeAt(pa PA, src []byte) {
	for len(src) > 0 {
		f := PFNOf(pa)
		n := copy(m.pageOf(f)[pa&PageMask:], src)
		m.dirty[f] = true
		src = src[n:]
		pa += PA(n)
	}
}

// bulkRead is the checked part of a bulk read of size bytes at pa: the
// range and poison checks, then the fault hook's draw. It returns the byte
// index and mask the hook chose (a zero mask leaves the data intact).
func (m *PhysMem) bulkRead(pa PA, size uint64) (int, byte, error) {
	if err := m.checkRange("read", pa, size); err != nil {
		return 0, 0, err
	}
	if err := m.checkPoison(pa, size); err != nil {
		return 0, 0, err
	}
	if m.hook == nil {
		return 0, 0, nil
	}
	i, mask := m.hook.ReadFault(pa, int(size))
	return i, mask, nil
}

// Read copies size bytes at pa into a fresh slice.
func (m *PhysMem) Read(pa PA, size uint64) ([]byte, error) {
	i, mask, err := m.bulkRead(pa, size)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	m.readAt(pa, out)
	if mask != 0 {
		out[i] ^= mask
	}
	return out, nil
}

// ReadInto copies len(dst) bytes at pa into dst.
func (m *PhysMem) ReadInto(pa PA, dst []byte) error {
	i, mask, err := m.bulkRead(pa, uint64(len(dst)))
	if err != nil {
		return err
	}
	m.readAt(pa, dst)
	if mask != 0 {
		dst[i] ^= mask
	}
	return nil
}

// ReadDiscard is Read of size bytes that no caller keeps: it fails where
// Read would and the fault hook draws as for Read, so a fault schedule does
// not depend on whether anyone reads the data. Only the copy is left out.
func (m *PhysMem) ReadDiscard(pa PA, size uint64) error {
	_, _, err := m.bulkRead(pa, size)
	return err
}

// Write copies src into memory at pa. A write repairs any poison its range
// covers; the fault hook may corrupt one stored byte or re-poison the line.
func (m *PhysMem) Write(pa PA, src []byte) error {
	if err := m.checkRange("write", pa, uint64(len(src))); err != nil {
		return err
	}
	m.writeAt(pa, src)
	m.ClearPoison(pa, uint64(len(src)))
	if m.hook != nil {
		i, mask, poison := m.hook.WriteFault(pa, len(src))
		if mask != 0 {
			b := pa + PA(i)
			m.pages[PFNOf(b)][b&PageMask] ^= mask
		}
		if poison {
			m.PoisonCacheline(pa)
		}
	}
	return nil
}

// fastPage returns the page holding a width-byte access at pa when the
// access stays inside one allocated frame that has a page: the metadata
// fast path (page-table entries, rPTEs, queue cursors are naturally aligned
// and never split pages). It returns nil for anything else — a
// page-crossing, out-of-range or unallocated access, or a frame without a
// page — which takes the checked path.
func (m *PhysMem) fastPage(pa PA, width uint64) *page {
	f := uint64(pa) >> PageShift
	if uint64(pa)&PageMask > PageSize-width || f >= uint64(len(m.pages)) || !m.alloced[f] {
		return nil
	}
	return m.pages[f]
}

// ReadU64 reads a little-endian uint64 at pa.
func (m *PhysMem) ReadU64(pa PA) (uint64, error) {
	if p := m.fastPage(pa, 8); p != nil {
		return binary.LittleEndian.Uint64(p[pa&PageMask:]), nil
	}
	var b [8]byte
	err := m.readChecked(pa, b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

// WriteU64 writes a little-endian uint64 at pa.
func (m *PhysMem) WriteU64(pa PA, v uint64) error {
	if p := m.fastPage(pa, 8); p != nil {
		binary.LittleEndian.PutUint64(p[pa&PageMask:], v)
		m.dirty[PFNOf(pa)] = true
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.writeChecked(pa, b[:])
}

// ReadU32 reads a little-endian uint32 at pa.
func (m *PhysMem) ReadU32(pa PA) (uint32, error) {
	if p := m.fastPage(pa, 4); p != nil {
		return binary.LittleEndian.Uint32(p[pa&PageMask:]), nil
	}
	var b [4]byte
	err := m.readChecked(pa, b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

// WriteU32 writes a little-endian uint32 at pa.
func (m *PhysMem) WriteU32(pa PA, v uint32) error {
	if p := m.fastPage(pa, 4); p != nil {
		binary.LittleEndian.PutUint32(p[pa&PageMask:], v)
		m.dirty[PFNOf(pa)] = true
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.writeChecked(pa, b[:])
}

// readChecked and writeChecked are the typed accessors' checked path: they
// check the range, then copy through readAt or writeAt, which read a frame
// without a page as zeros and give a written frame its page.
func (m *PhysMem) readChecked(pa PA, b []byte) error {
	if err := m.checkRange("read", pa, uint64(len(b))); err != nil {
		return err
	}
	m.readAt(pa, b)
	return nil
}

func (m *PhysMem) writeChecked(pa PA, b []byte) error {
	if err := m.checkRange("write", pa, uint64(len(b))); err != nil {
		return err
	}
	m.writeAt(pa, b)
	return nil
}

// Fill sets size bytes at pa to b, repairing any poison in the range. A zero
// fill gives no frame a page: frames without one already read as zeros.
func (m *PhysMem) Fill(pa PA, size uint64, b byte) error {
	if err := m.checkRange("write", pa, size); err != nil {
		return err
	}
	for at, end := pa, pa+PA(size); at < end; {
		f, off := PFNOf(at), at&PageMask
		n := min(end-at, PageSize-off)
		if b != 0 {
			dst := m.pageOf(f)[off : off+n]
			for i := range dst {
				dst[i] = b
			}
			m.dirty[f] = true
		} else if p := m.pages[f]; p != nil {
			clear(p[off : off+n])
		}
		at += n
	}
	m.ClearPoison(pa, size)
	return nil
}

// Span returns a mutable view of [pa, pa+size): the metadata fast path for
// simulated structures touched on every operation (descriptor rings, flat
// rPTE tables). It gives the range's frames one contiguous slab, copying in
// the bytes they hold, and points their directory entries into it, so the
// view and every other accessor see the same bytes. Span is for a run no
// live view covers — its callers take it right after AllocFrames — because
// a new slab detaches an older view of the same frames. A slab stays with
// its frames across pooled lives, so a later world that spans the same run
// reuses it.
//
// The whole range must be allocated when the view is taken and stay
// allocated for the view's lifetime, and the view must not outlive a
// Release. Like the typed accessors, access through the view bypasses fault
// hooks and poison (metadata integrity is modeled at the device layer, and
// DMA paths to the same bytes still see every store). The range is
// conservatively marked dirty up front.
func (m *PhysMem) Span(pa PA, size uint64) ([]byte, error) {
	if err := m.checkRange("span", pa, size); err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, nil
	}
	first := PFNOf(pa)
	n := int(PFNOf(pa+PA(size)-1)-first) + 1
	s := m.slabs[first]
	if !m.backedBy(first, n, s) {
		s = make([]byte, n*PageSize)
		for i := range n {
			f := first + PFN(i)
			if p := m.pages[f]; p != nil {
				copy(s[i*PageSize:], p[:])
			}
			m.pages[f] = (*page)(s[i*PageSize:])
		}
		if m.slabs == nil {
			m.slabs = make(map[PFN][]byte)
		}
		m.slabs[first] = s
	}
	for i := range n {
		m.dirty[first+PFN(i)] = true
	}
	off := uint64(pa & PageMask)
	return s[off : off+size : off+size], nil
}

// backedBy reports whether the n frames from first are the consecutive
// pages of slab s.
func (m *PhysMem) backedBy(first PFN, n int, s []byte) bool {
	if len(s) < n*PageSize {
		return false
	}
	for i := range n {
		if m.pages[first+PFN(i)] != (*page)(s[i*PageSize:]) {
			return false
		}
	}
	return true
}

// CachelinesSpanned returns how many cachelines the byte range [pa, pa+size)
// touches; used to charge per-cacheline flush costs.
func CachelinesSpanned(pa PA, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	first := uint64(pa) / CachelineSize
	last := (uint64(pa) + size - 1) / CachelineSize
	return last - first + 1
}
