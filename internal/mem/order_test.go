package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// eagerMem is the frame allocator PhysMem's lazy free list and first-free
// cursor stand in for: one slice holding every free frame, never-allocated
// frames in descending order followed by freed frames in push order.
// AllocFrame pops the last element; AllocFrames scans first-fit from frame 1
// and swap-removes each frame of the run it takes.
type eagerMem struct {
	alloced []bool
	free    []PFN
}

func newEagerMem(frames int) *eagerMem {
	e := &eagerMem{alloced: make([]bool, frames)}
	e.alloced[0] = true
	for f := frames - 1; f >= 1; f-- {
		e.free = append(e.free, PFN(f))
	}
	return e
}

func (e *eagerMem) allocFrame() (PFN, bool) {
	n := len(e.free)
	if n == 0 {
		return 0, false
	}
	f := e.free[n-1]
	e.free = e.free[:n-1]
	e.alloced[f] = true
	return f, true
}

func (e *eagerMem) allocFrames(n int) (PFN, bool) {
	if n == 1 {
		return e.allocFrame()
	}
	run := 0
	for f := 1; f < len(e.alloced); f++ {
		if e.alloced[f] {
			run = 0
			continue
		}
		run++
		if run == n {
			first := PFN(f - n + 1)
			for g := first; g <= PFN(f); g++ {
				i := slices.Index(e.free, g)
				e.free[i] = e.free[len(e.free)-1]
				e.free = e.free[:len(e.free)-1]
				e.alloced[g] = true
			}
			return first, true
		}
	}
	return 0, false
}

func (e *eagerMem) freeFrame(f PFN) bool {
	if f == 0 || int(f) >= len(e.alloced) || !e.alloced[f] {
		return false
	}
	e.alloced[f] = false
	e.free = append(e.free, f)
	return true
}

// TestAllocOrderMatchesEager pins the allocation order PhysMem promises:
// the same PFN, or the same failure, as the eager free list, after every
// AllocFrame, AllocFrames(2..8) and FreeFrame of seeded sequences on 16–96
// frame memories. Each sequence alternates growing and shrinking phases, so
// it runs into exhaustion, frees frames below AllocFrames's cursor and
// allocates around the holes, and usually ends with the free list
// materialized; the test fails unless the seeds reach each of those states.
func TestAllocOrderMatchesEager(t *testing.T) {
	var exhausted, noRun, lazyHoles, materialized int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := 16 + rng.Intn(81)
		m := mustMem(t, uint64(frames)*PageSize)
		ref := newEagerMem(frames)
		allocOdds := 3 // of 4: a growing phase; 1 of 4 while shrinking
		for op := 0; op < 600; op++ {
			if rng.Intn(64) == 0 {
				allocOdds = 4 - allocOdds
			}
			if rng.Intn(4) < allocOdds {
				n := 1
				if rng.Intn(2) == 0 {
					n = 2 + rng.Intn(7)
				}
				if n > 1 && m.lazy && len(m.free) > 0 {
					lazyHoles++
				}
				got, err := m.AllocFrames(n)
				want, ok := ref.allocFrames(n)
				if (err == nil) != ok || got != want {
					t.Fatalf("seed %d op %d: AllocFrames(%d) = %d, %v; eager list gives %d, %v", seed, op, n, got, err, want, ok)
				}
				if !ok && n == 1 {
					exhausted++
				} else if !ok {
					noRun++
				}
			} else {
				// Mostly a live frame; sometimes any frame, so frees of
				// frame 0, free frames and out-of-range frames must fail
				// alike.
				f := PFN(rng.Intn(frames + 2))
				if rng.Intn(5) != 0 {
					var live []PFN
					for g := 1; g < frames; g++ {
						if ref.alloced[g] {
							live = append(live, PFN(g))
						}
					}
					if len(live) > 0 {
						f = live[rng.Intn(len(live))]
					}
				}
				err := m.FreeFrame(f)
				if ok := ref.freeFrame(f); (err == nil) != ok {
					t.Fatalf("seed %d op %d: FreeFrame(%d) = %v; eager list accepts: %v", seed, op, f, err, ok)
				}
			}
			if got, want := m.FreeFrames(), len(ref.free); got != want {
				t.Fatalf("seed %d op %d: FreeFrames = %d, eager list holds %d", seed, op, got, want)
			}
		}
		if !m.lazy {
			materialized++
		}
		m.Release()
	}
	t.Logf("exhausted %d, no contiguous run %d, multi-frame allocs with lazy holes %d, materialized seeds %d/400",
		exhausted, noRun, lazyHoles, materialized)
	if exhausted == 0 || noRun == 0 || lazyHoles == 0 || materialized == 0 {
		t.Fatal("the seeded sequences no longer reach every allocator state")
	}
}
