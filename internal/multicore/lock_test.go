package multicore

import (
	"math/rand"
	"testing"

	"riommu/internal/cycles"
)

// loopAcquire is Acquire as it was before the capped spins were charged in
// closed form: one ChargeFree per backoff spin until the clock passes the
// release point, however many spins of BackoffMax that takes.
func loopAcquire(l *Lock, clk *cycles.Clock) {
	l.Stats.Acquisitions++
	clk.Charge(cycles.LockContention, l.p.AcquireCycles)
	if clk.Now() < l.freeAt {
		l.Stats.Contended++
		spin := l.p.BackoffBase
		for clk.Now() < l.freeAt {
			clk.ChargeFree(cycles.LockContention, spin)
			l.Stats.WaitCycles += spin
			if spin < l.p.BackoffMax {
				spin *= 2
				if spin > l.p.BackoffMax {
					spin = l.p.BackoffMax
				}
			}
		}
	}
	l.heldFrom = clk.Now()
}

// TestAcquireMatchesSpinLoop pins Acquire against the spin loop over seeded
// (LockParams, now, freeAt) draws: uncontended acquires, waits that end in
// the doubling phase, waits of many capped spins, a cap equal to the base,
// and zero parameters that NewLock replaces with defaults. The clock's time,
// per-component totals and charge counts, the lock's stats and its
// critical-section start must all agree.
func TestAcquireMatchesSpinLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draw := func(max int64) uint64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return uint64(rng.Int63n(max))
	}
	for i := 0; i < 20000; i++ {
		p := NewLock(LockParams{AcquireCycles: draw(100), BackoffBase: draw(200), BackoffMax: draw(10000)}).p
		now := draw(1_000_000)
		var freeAt uint64
		switch rng.Intn(4) {
		case 0: // released before the acquirer arrives
			freeAt = now - uint64(rng.Int63n(int64(now)+1))
		case 1: // a short wait, within the doubling spins
			freeAt = now + p.AcquireCycles + uint64(rng.Int63n(2000))
		default: // up to 1,000 capped spins
			freeAt = now + uint64(rng.Int63n(int64(1000*p.BackoffMax)))
		}

		var clks [2]cycles.Clock
		var locks [2]*Lock
		for j := range locks {
			clks[j].Charge(cycles.MapOther, now)
			locks[j] = NewLock(p)
			locks[j].freeAt = freeAt
		}
		locks[0].Acquire(&clks[0])
		loopAcquire(locks[1], &clks[1])

		if got, want := clks[0].Snapshot(), clks[1].Snapshot(); got != want {
			t.Fatalf("draw %d (%+v now=%d freeAt=%d): clock %+v, spin loop %+v", i, locks[0].p, now, freeAt, got, want)
		}
		if got, want := locks[0].Stats, locks[1].Stats; got != want {
			t.Fatalf("draw %d (%+v now=%d freeAt=%d): stats %+v, spin loop %+v", i, locks[0].p, now, freeAt, got, want)
		}
		if got, want := locks[0].heldFrom, locks[1].heldFrom; got != want {
			t.Fatalf("draw %d (%+v now=%d freeAt=%d): heldFrom %d, spin loop %d", i, locks[0].p, now, freeAt, got, want)
		}
	}
}
