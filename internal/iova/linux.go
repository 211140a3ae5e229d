package iova

import (
	"fmt"
	"math/bits"

	"riommu/internal/cycles"
)

// DMA32PFN is the default allocation limit: the first PFN above the 32-bit
// address space (NIC drivers request 32-bit-reachable IOVAs, which is the
// case the cached32_node optimization — and its pathology — applies to).
const DMA32PFN = uint64(1) << (32 - 12)

// StartPFN is the lowest allocatable PFN (Linux reserves IOVA page 0).
const StartPFN = uint64(1)

// Allocator is the OS-side IOVA number allocator used by the baseline IOMMU
// driver: it hands out integer page ranges that are not currently associated
// with any other mapping (step 3 of Figure 4) and recycles them on unmap
// (step 4 of Figure 6).
type Allocator interface {
	// Alloc reserves `pages` contiguous IOVA pages below the limit and
	// returns the first PFN of the range.
	Alloc(pages uint64) (uint64, error)
	// Contains reports whether pfn belongs to a live allocation.
	Contains(pfn uint64) bool
	// Free releases the live range containing pfn.
	Free(pfn uint64) error
	// Live returns the number of live allocations.
	Live() int
}

// LinuxAllocator reproduces the Linux 3.4 IOVA allocator: a red-black tree
// of allocated ranges with top-down first-fit allocation starting from the
// cached32 node. See alloc_iova()/__free_iova() in drivers/iommu/iova.c.
//
// The pathology the paper measures (strict-mode allocation costing ~3,986
// cycles) is charged here exactly as the kernel incurs it: whenever a free
// or an allocation near the top of the space resets the cached node high,
// the next allocation's gap search walks rb_prev over every live range
// between the cache and the first gap — linear in the number of live IOVAs.
// The host does not repeat that walk. It finds the same gap in a page
// bitmap, skipping 64 covered pages a word, and charges the virtual clock
// the node visits the walk would have made: one per live range it steps
// over, counted from a second bitmap of range starts (DESIGN §10, "The
// IOVA gap search").
type LinuxAllocator struct {
	clk   *cycles.Clock
	model *cycles.Model

	t        tree
	cached32 *node // Linux iovad->cached32_node
	limit    uint64
	arena    nodeArena
	spare    []*node // nodes recycled by Free, reused by Alloc

	// Page bitmaps anchored at limit: bit d%64 of word d/64 stands for page
	// limit-d, so they grow downward only as deep as allocations go.
	// covered holds every page of a live range, starts its first page.
	covered []uint64
	starts  []uint64

	// Statistics for tests and the experiment harness.
	LastAllocVisits uint64
	MaxAllocVisits  uint64
	TotalVisits     uint64
	Allocs          uint64
}

// NewLinux returns a LinuxAllocator charging the given clock. limit is the
// top PFN boundary (exclusive upper bound is limit+1; allocations return
// ranges with pfnHi <= limit); pass DMA32PFN-1 for the kernel default.
func NewLinux(clk *cycles.Clock, model *cycles.Model, limit uint64) *LinuxAllocator {
	return &LinuxAllocator{clk: clk, model: model, limit: limit}
}

// Live returns the number of live allocations.
func (a *LinuxAllocator) Live() int { return a.t.size }

// Alloc implements __alloc_and_insert_iova_range: top-down search for a gap
// of `pages` below the limit, starting from the cached node.
func (a *LinuxAllocator) Alloc(pages uint64) (uint64, error) {
	if pages == 0 {
		return 0, fmt.Errorf("iova: zero-size allocation")
	}
	a.t.takeVisits()

	// __get_cached_rbnode: the walk starts at rb_prev(cached32), one
	// touch, or at the last node, touching the tree's right spine.
	top := a.limit
	if a.cached32 == nil {
		a.t.last()
	} else {
		top = a.cached32.pfnLo - 1
		a.t.touch()
	}
	hi, ok := a.findGap(top, pages)
	if !ok {
		a.chargeAlloc()
		return 0, fmt.Errorf("iova: address space exhausted (%d live)", a.t.size)
	}
	return a.insert(hi-pages+1, hi), nil
}

// findGap finds the gap the kernel's walk down from top settles on: the
// highest maximal free run of at least `pages` pages in [StartPFN, top]. It
// returns the run's top page and adds to the tree's visit count one rb_prev
// per live range the walk steps over on its way: every range starting
// between the run and top, or every range below top when none fits.
func (a *LinuxAllocator) findGap(top, pages uint64) (uint64, bool) {
	if top < StartPFN {
		return 0, false
	}
	from, end := a.limit-top, a.limit-StartPFN // bitmap offsets
	for d := from; ; {
		d = nextBit(a.covered, d, end+1, false)
		if d > end {
			a.t.visits += countBits(a.starts, from, end+1)
			return 0, false
		}
		e := nextBit(a.covered, d, min(d+pages, end+1), true)
		if e-d >= pages {
			a.t.visits += countBits(a.starts, from, d)
			return a.limit - d, true
		}
		d = e
	}
}

// insert makes [lo, hi] a live range and caches it, then charges the
// allocation. __cached_rbnode_insert_update caches the new node because
// the caller's limit equals the dma-32bit limit for every allocation in
// this workload.
func (a *LinuxAllocator) insert(lo, hi uint64) uint64 {
	var n *node
	if len(a.spare) > 0 {
		n = a.spare[len(a.spare)-1]
		a.spare = a.spare[:len(a.spare)-1]
	} else {
		n = a.arena.get()
	}
	n.pfnLo, n.pfnHi = lo, hi
	a.flip(n)
	a.t.insert(n)
	a.cached32 = n
	a.chargeAlloc()
	return lo
}

// flip toggles n's pages in both bitmaps. A range's pages are all clear
// when it is allocated and all set when it is freed, so one flip sets them
// and the next clears them. The bitmaps grow, at most to the page above
// StartPFN, when n reaches below them.
func (a *LinuxAllocator) flip(n *node) {
	lo, hi := a.limit-n.pfnHi, a.limit-n.pfnLo // offsets; hi is n's first page
	if need := int(hi/64) + 1; need > len(a.covered) {
		words := min(max(need, 2*len(a.covered)), int((a.limit-StartPFN)/64)+1)
		a.covered = append(a.covered, make([]uint64, words-len(a.covered))...)
		a.starts = append(a.starts, make([]uint64, words-len(a.starts))...)
	}
	a.starts[hi/64] ^= 1 << (hi % 64)
	for w := lo / 64; w <= hi/64; w++ {
		m := ^uint64(0)
		if w == lo/64 {
			m <<= lo % 64
		}
		if w == hi/64 {
			m &= ^uint64(0) >> (63 - hi%64)
		}
		a.covered[w] ^= m
	}
}

// nextBit returns the first offset in [d, lim) whose bit equals set, or
// lim when there is none. It skips whole words that hold no such bit, and
// offsets past the end of words read as clear.
func nextBit(words []uint64, d, lim uint64, set bool) uint64 {
	var inv uint64 // ^0 turns a search for a clear bit into one for a set bit
	if !set {
		inv = ^uint64(0)
	}
	for w := d / 64; d < lim; w++ {
		if w >= uint64(len(words)) {
			if set {
				return lim
			}
			return d
		}
		if x := (words[w] ^ inv) >> (d % 64); x != 0 {
			return min(d+uint64(bits.TrailingZeros64(x)), lim)
		}
		d = (w + 1) * 64
	}
	return lim
}

// countBits returns the number of set bits at offsets [lo, hi).
func countBits(words []uint64, lo, hi uint64) uint64 {
	hi = min(hi, uint64(len(words))*64)
	var n int
	for lo < hi {
		w := lo / 64
		m := ^uint64(0) << (lo % 64)
		if hi-w*64 < 64 {
			m &= 1<<(hi-w*64) - 1
		}
		n += bits.OnesCount64(words[w] & m)
		lo = (w + 1) * 64
	}
	return uint64(n)
}

func (a *LinuxAllocator) chargeAlloc() {
	visits := a.t.takeVisits()
	a.LastAllocVisits = visits
	a.TotalVisits += visits
	a.Allocs++
	if visits > a.MaxAllocVisits {
		a.MaxAllocVisits = visits
	}
	a.clk.Charge(cycles.MapIOVAAlloc, a.model.RBInsertFixed+visits*a.model.RBNodeVisit)
}

// Contains reports whether pfn is inside a live range (without charging).
func (a *LinuxAllocator) Contains(pfn uint64) bool {
	defer a.t.takeVisits()
	return a.t.find(pfn) != nil
}

// Free implements find_iova + __free_iova: a logarithmic lookup charged to
// the unmap "iova find" component, then the cached-node update and rb_erase
// charged to "iova free".
func (a *LinuxAllocator) Free(pfn uint64) error {
	a.t.takeVisits()
	n := a.t.find(pfn)
	a.clk.Charge(cycles.UnmapIOVAFind, a.t.takeVisits()*a.model.RBFindVisit)
	if n == nil {
		return fmt.Errorf("iova: free of unallocated pfn %#x", pfn)
	}
	// __cached_rbnode_delete_update.
	if a.cached32 != nil && n.pfnLo >= a.cached32.pfnLo {
		succ := a.t.next(n)
		if succ != nil && succ.pfnLo < a.limit {
			a.cached32 = succ
		} else {
			a.cached32 = nil
		}
	}
	a.t.erase(n)
	a.flip(n)
	a.spare = append(a.spare, n)
	a.clk.Charge(cycles.UnmapIOVAFree, a.model.RBEraseFixed+a.t.takeVisits()*a.model.RBNodeVisit)
	return nil
}

var _ Allocator = (*LinuxAllocator)(nil)
