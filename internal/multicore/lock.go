// Package multicore is the deterministic K-core scale-out engine of the
// paper's §2.3 claim: rIOMMU scales across cores because every ring owns its
// flat table and rIOTLB entries, while the baseline modes serialize on the
// shared red-black-tree IOVA allocator and the global invalidation queue.
//
// Each simulated core drives one MQNIC queue pair on its own virtual clock.
// There is exactly one physical cycles.Clock (the one every component in the
// simulation world already points at); the scheduler multiplexes it across
// cores with Snapshot/Restore, always advancing the core whose virtual time
// is smallest. Shared OS structures are wrapped in a cycle-cost spinlock
// model: acquisition charges a fixed atomic cost, and when the lock's
// release time lies in the acquirer's future the core spins with exponential
// backoff until its own clock passes the release point — the discrete-event
// analogue of K cores hammering one spinlock. rIOMMU's per-ring paths take
// no lock at all, exactly as in the paper.
package multicore

import (
	"riommu/internal/cycles"
	"riommu/internal/driver"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// LockParams calibrates the contention cycle model. All costs are in CPU
// cycles on the acquiring core's clock.
type LockParams struct {
	// AcquireCycles is the uncontended cost of one acquire/release pair:
	// the locked atomic plus the release store. Charged on every acquire.
	AcquireCycles uint64
	// BackoffBase is the first spin's length when the lock is found held.
	// Each subsequent spin doubles, up to BackoffMax (test-and-test-and-set
	// with exponential backoff).
	BackoffBase uint64
	// BackoffMax caps the spin length.
	BackoffMax uint64
}

// DefaultLockParams models a cross-core spinlock on the paper's Sandy Bridge
// setup: ~40 cycles for the contended-cacheline atomic, backoff spins from
// 50 cycles doubling to a 3,200-cycle cap.
func DefaultLockParams() LockParams {
	return LockParams{AcquireCycles: 40, BackoffBase: 50, BackoffMax: 3200}
}

// LockStats aggregates what the lock observed over a run.
type LockStats struct {
	Acquisitions uint64 // total acquires
	Contended    uint64 // acquires that found the lock held
	WaitCycles   uint64 // cycles burned spinning (backoff overshoot included)
	HeldCycles   uint64 // cycles spent inside critical sections
}

// Lock is the deterministic spinlock cost model. It holds no goroutine
// state — "held" means the owner's release lies in the acquirer's virtual
// future. The zero value is unusable; use NewLock.
type Lock struct {
	p        LockParams
	freeAt   uint64 // virtual time of the last release
	heldFrom uint64
	Stats    LockStats
}

// NewLock builds a lock, substituting defaults for zero-valued parameters.
func NewLock(p LockParams) *Lock {
	d := DefaultLockParams()
	if p.AcquireCycles == 0 {
		p.AcquireCycles = d.AcquireCycles
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = d.BackoffBase
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = p.BackoffBase
	}
	return &Lock{p: p}
}

// Acquire charges the acquiring core's clock for taking the lock: the fixed
// atomic cost, plus exponential-backoff spins while another core's critical
// section still occupies the lock in virtual time. On return the core owns
// the lock at its (possibly advanced) current time.
//
// Once the spin length reaches BackoffMax every further spin is the same
// length, so the k spins still needed to pass the release point are charged
// in one step: the same clock, ledger and stats as spinning k times.
func (l *Lock) Acquire(clk *cycles.Clock) {
	l.Stats.Acquisitions++
	clk.Charge(cycles.LockContention, l.p.AcquireCycles)
	if clk.Now() < l.freeAt {
		l.Stats.Contended++
		spin := l.p.BackoffBase
		for spin < l.p.BackoffMax && clk.Now() < l.freeAt {
			clk.ChargeFree(cycles.LockContention, spin)
			l.Stats.WaitCycles += spin
			spin *= 2
			if spin > l.p.BackoffMax {
				spin = l.p.BackoffMax
			}
		}
		if now := clk.Now(); now < l.freeAt {
			wait := l.freeAt - now
			k := wait / spin
			if wait%spin != 0 {
				k++
			}
			clk.ChargeFreeN(cycles.LockContention, k, spin)
			l.Stats.WaitCycles += k * spin
		}
	}
	l.heldFrom = clk.Now()
}

// ResetStats zeroes the tally and forgets the last release point; the
// engine calls it between warmup and the measured phase, when every core's
// virtual clock restarts from zero.
func (l *Lock) ResetStats() {
	l.Stats = LockStats{}
	l.freeAt = 0
	l.heldFrom = 0
}

// Release marks the critical section over at the releasing core's current
// time; later acquirers whose clocks trail this point will spin.
func (l *Lock) Release(clk *cycles.Clock) {
	now := clk.Now()
	l.Stats.HeldCycles += now - l.heldFrom
	if now > l.freeAt {
		l.freeAt = now
	}
}

// ContendedProtection wraps a shared driver.Protection (the baseline modes'
// one-per-device driver: rbtree/const IOVA allocator + invalidation queue)
// in the lock model. Every Map and Unmap runs under the domain lock, the
// same spinlock Linux's intel-iommu driver takes around IOVA allocation and
// invalidation-queue submission.
//
// rIOMMU protections are deliberately never wrapped: each ring's tail
// pointer, flat table and rIOTLB entries are owned by exactly one core
// (§2.3), so its map/unmap path is lock-free.
type ContendedProtection struct {
	inner driver.Protection
	lock  *Lock
	clk   *cycles.Clock
}

// Contend wraps prot so every Map/Unmap charges lock acquisition (and any
// contention backoff) on clk before running the underlying operation.
func Contend(prot driver.Protection, lock *Lock, clk *cycles.Clock) *ContendedProtection {
	return &ContendedProtection{inner: prot, lock: lock, clk: clk}
}

// Map acquires the domain lock, maps through the shared driver, releases.
func (c *ContendedProtection) Map(ring int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	c.lock.Acquire(c.clk)
	defer c.lock.Release(c.clk)
	return c.inner.Map(ring, pa, size, dir)
}

// Unmap acquires the domain lock, unmaps through the shared driver (strict
// modes wait out the invalidation round trip inside the critical section,
// which is what flattens their scaling curve), releases.
func (c *ContendedProtection) Unmap(ring int, iova uint64, size uint32, endOfBurst bool) error {
	c.lock.Acquire(c.clk)
	defer c.lock.Release(c.clk)
	return c.inner.Unmap(ring, iova, size, endOfBurst)
}
