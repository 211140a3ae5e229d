package iova

import (
	"fmt"
	"testing"

	"riommu/internal/cycles"
)

// walkAlloc is LinuxAllocator.Alloc as the kernel runs it
// (__alloc_and_insert_iova_range): it walks rb_prev down from the cached
// node, or from the last node, over the live ranges until a gap fits. It is
// the reference the bitmap search must match allocation for allocation and
// visit for visit; it records the range through a's own insert, so a's
// bitmaps stay whole and Free works on both.
func walkAlloc(a *LinuxAllocator, pages uint64) (uint64, error) {
	if pages == 0 {
		return 0, fmt.Errorf("iova: zero-size allocation")
	}
	a.t.takeVisits()

	// __get_cached_rbnode: start below the cached node when present.
	limit := a.limit
	var curr *node
	if a.cached32 == nil {
		curr = a.t.last()
	} else {
		limit = a.cached32.pfnLo - 1
		curr = a.t.prev(a.cached32)
	}

	for curr != nil {
		switch {
		case limit < curr.pfnLo:
			// Entirely above us; move left.
		case limit <= curr.pfnHi:
			// limit falls inside curr; adjust below it.
			limit = curr.pfnLo - 1
		default:
			// Gap between curr.pfnHi and limit.
			if curr.pfnHi+pages <= limit {
				goto found
			}
			limit = curr.pfnLo - 1
		}
		curr = a.t.prev(curr)
	}
	// Reached the bottom: the gap is [StartPFN, limit].
	if limit < StartPFN || limit-StartPFN+1 < pages {
		a.chargeAlloc()
		return 0, fmt.Errorf("iova: address space exhausted (%d live)", a.t.size)
	}

found:
	return a.insert(limit-pages+1, limit), nil
}

// fuzzMaxSteps bounds a generated sequence, so that rebuilding the bitmaps
// after every step keeps each input to milliseconds.
const fuzzMaxSteps = 512

// fuzzSmallLimit is the second limit every step sequence runs under: pages
// 1..100, two bitmap words, small enough that requests exhaust it.
const fuzzSmallLimit = 100

// linuxCase is one edge case a step sequence can reach, judged on the
// reference allocator's state before an Alloc; a set of them is their OR.
type linuxCase uint8

const (
	emptyTree     linuxCase = 1 << iota // an Alloc on an empty tree
	nilCached                           // no cached node while ranges are live
	zeroGap                             // the search top is the last page of a live range
	cachedAtStart                       // the cached node sits at StartPFN
	overGaps                            // a multi-page Alloc fails though as many pages are free
	exhausted                           // an Alloc fails
)

// runAgainstWalk decodes steps into Alloc and Free calls and runs them on
// two allocators under limit: one searching its bitmap, one walking the
// tree. A byte below 0x40 allocates 1+b%8 pages, one in [0x40, 0x80)
// allocates 1+b%64, and one from 0x80 frees live range (b-0x80)%live, or
// the unallocated page b-0x7f when none is live. After every step the two
// must agree on the result, the visit counters and the clock, and the
// bitmaps must equal those rebuilt from the tree.
func runAgainstWalk(t *testing.T, limit uint64, steps []byte) linuxCase {
	t.Helper()
	model := cycles.DefaultModel()
	got := NewLinux(&cycles.Clock{}, &model, limit)
	want := NewLinux(&cycles.Clock{}, &model, limit)
	var cases linuxCase
	reached := func(c linuxCase, ok bool) {
		if ok {
			cases |= c
		}
	}
	var live []uint64
	var livePages uint64
	for i, b := range steps {
		var gotPFN, wantPFN uint64
		var gotErr, wantErr error
		if b < 0x80 {
			pages := 1 + uint64(b%8)
			if b >= 0x40 {
				pages = 1 + uint64(b%64)
			}
			top := limit
			if want.cached32 != nil {
				top = want.cached32.pfnLo - 1
			}
			reached(emptyTree, want.t.size == 0)
			reached(nilCached, want.cached32 == nil && want.t.size > 0)
			reached(zeroGap, top >= StartPFN && want.Contains(top))
			reached(cachedAtStart, want.cached32 != nil && want.cached32.pfnLo == StartPFN)
			free := limit + 1 - StartPFN - livePages
			gotPFN, gotErr = got.Alloc(pages)
			wantPFN, wantErr = walkAlloc(want, pages)
			if wantErr == nil {
				live = append(live, wantPFN)
				livePages += pages
			} else {
				reached(exhausted, true)
				reached(overGaps, pages > 1 && free >= pages)
			}
		} else {
			pfn := uint64(b) - 0x7f
			if len(live) > 0 {
				j := int(b-0x80) % len(live)
				pfn = live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				n := want.t.find(pfn)
				livePages -= n.pfnHi - n.pfnLo + 1
			}
			gotErr, wantErr = got.Free(pfn), want.Free(pfn)
		}
		if gotPFN != wantPFN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("limit %d step %d (%#x): bitmap gave %#x, %v; the walk gave %#x, %v",
				limit, i, b, gotPFN, gotErr, wantPFN, wantErr)
		}
		if got.LastAllocVisits != want.LastAllocVisits || got.TotalVisits != want.TotalVisits ||
			got.MaxAllocVisits != want.MaxAllocVisits || got.Allocs != want.Allocs {
			t.Fatalf("limit %d step %d (%#x): visits last/total/max/allocs %d/%d/%d/%d, the walk's %d/%d/%d/%d",
				limit, i, b, got.LastAllocVisits, got.TotalVisits, got.MaxAllocVisits, got.Allocs,
				want.LastAllocVisits, want.TotalVisits, want.MaxAllocVisits, want.Allocs)
		}
		if g, w := got.clk.Snapshot(), want.clk.Snapshot(); g != w {
			t.Fatalf("limit %d step %d (%#x): clock %+v, the walk's %+v", limit, i, b, g, w)
		}
		checkBitmaps(t, got)
	}
	return cases
}

// checkBitmaps fails unless a's bitmaps hold exactly the pages and the
// first pages of the ranges in its tree.
func checkBitmaps(t *testing.T, a *LinuxAllocator) {
	t.Helper()
	covered := make([]uint64, len(a.covered))
	starts := make([]uint64, len(a.starts))
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		for p := n.pfnLo; p <= n.pfnHi; p++ {
			d := a.limit - p
			covered[d/64] |= 1 << (d % 64)
		}
		d := a.limit - n.pfnLo
		starts[d/64] |= 1 << (d % 64)
		walk(n.right)
	}
	walk(a.t.root)
	for w := range covered {
		if covered[w] != a.covered[w] || starts[w] != a.starts[w] {
			t.Fatalf("bitmap word %d: covered %#x starts %#x, the tree's ranges give %#x and %#x",
				w, a.covered[w], a.starts[w], covered[w], starts[w])
		}
	}
}

// linuxSeeds is FuzzLinuxAllocator's seed corpus. Each seed must reach the
// cases it names under one of the two limits (TestLinuxSeedsReachTheirCases).
var linuxSeeds = []struct {
	name  string
	steps []byte
	want  linuxCase
}{
	{"empty tree", []byte{0x00, 0x80, 0x00}, emptyTree},
	// Freeing the second page leaves its successor, the first, starting at
	// the limit rather than below it, so the cache clears.
	{"nil cached node with ranges present", []byte{0x00, 0x00, 0x81, 0x00, 0x01}, nilCached},
	// A 2-page range at the top and pages B, C, D below it: freeing C
	// caches B, the refill lands in C's hole, and the 2-page request then
	// starts its search on D's page, a zero-page gap.
	{"zero-page gaps between adjacent ranges", []byte{0x01, 0x00, 0x00, 0x00, 0x82, 0x00, 0x01}, zeroGap},
	// 64+32+4 pages fill the small limit down to StartPFN.
	{"cached node at StartPFN", []byte{0x7f, 0x5f, 0x03, 0x00}, cachedAtStart | exhausted},
	// The small limit filled with 64+32+1+1+1+1 pages; freeing pages 4 and
	// 2 leaves two one-page gaps, and a 2-page request fits neither.
	{"multi-page request larger than every gap", []byte{0x7f, 0x5f, 0x00, 0x00, 0x00, 0x00, 0x82, 0x84, 0x01}, overGaps | exhausted},
	{"exhaustion", []byte{0x7f, 0x7f, 0x00, 0x80, 0x7f}, exhausted},
	// Rx-refill churn: a band of pages, then frees of high ranges whose
	// refills reset the cache and send the next allocation down the band.
	{"churn", []byte{
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00,
		0x81, 0x00, 0x00, 0x8b, 0x83, 0x00, 0x45, 0x80, 0x00, 0x00, 0x8a, 0x86,
		0x00, 0x03, 0x8f, 0x00, 0x84, 0x00, 0x00, 0x89, 0x81, 0x00, 0x00, 0x00,
	}, 0},
}

// FuzzLinuxAllocator runs generated Alloc and Free sequences on the bitmap
// search and on the kernel's walk, under the DMA32 limit and under a limit
// small enough to exhaust, and requires the same ranges, errors, visit
// counts and clock charges after every step.
func FuzzLinuxAllocator(f *testing.F) {
	for _, s := range linuxSeeds {
		f.Add(s.steps)
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > fuzzMaxSteps {
			steps = steps[:fuzzMaxSteps]
		}
		for _, limit := range []uint64{DMA32PFN - 1, fuzzSmallLimit} {
			runAgainstWalk(t, limit, steps)
		}
	})
}

// TestLinuxSeedsReachTheirCases keeps the seed corpus honest: each seed
// must reach the edge cases its name promises.
func TestLinuxSeedsReachTheirCases(t *testing.T) {
	for _, s := range linuxSeeds {
		var got linuxCase
		for _, limit := range []uint64{DMA32PFN - 1, fuzzSmallLimit} {
			got |= runAgainstWalk(t, limit, s.steps)
		}
		if got&s.want != s.want {
			t.Errorf("seed %q reached cases %06b, want %06b", s.name, got, s.want)
		}
	}
}

// TestBitmapMatchesWalkOnChurn runs seeded storms through both searches:
// 300 allocations of 1 to 4 pages, then an even mix of such allocations
// and frees of random live ranges. A free above the cached node resets it
// high, as an Rx refill does, and sends later searches down the band.
func TestBitmapMatchesWalkOnChurn(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		steps := make([]byte, 3000)
		s := seed
		for i := range steps {
			r := churnRNG(&s)
			switch {
			case i < 300 || r%8 < 4:
				steps[i] = byte(r>>8) % 4 // 1 to 4 pages
			default:
				steps[i] = 0x80 | byte(r>>16)&0x7f
			}
		}
		runAgainstWalk(t, DMA32PFN-1, steps)
		runAgainstWalk(t, 600, steps)
	}
}
