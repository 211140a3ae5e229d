package driver

import (
	"errors"
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/pci"
)

// This file implements the driver-level fault-recovery machinery layered on
// the fault-injection engine (package faults): bounded retry with
// virtual-clock backoff, a watchdog that detects hung devices by the absence
// of forward progress, graceful degradation to a safer protection mode when
// a device keeps faulting, and (breaker.go) circuit breaking that
// quarantines a device, or a tenant's fleet, that keeps failing anyway.
// Everything is charged to the virtual clock's Recovery component, so
// campaigns can report exactly how many cycles fault handling costs
// (cmd/riommu-faults).

// Sentinel errors for the recovery outcomes callers need to distinguish;
// every path wraps them with %w, so use errors.Is — never string matching.
var (
	// ErrRetriesExhausted: every attempt of an operation failed; the last
	// underlying error is wrapped alongside.
	ErrRetriesExhausted = errors.New("driver: retries exhausted")
	// ErrWatchdogHang: a watchdog-detected hang could not be recovered.
	ErrWatchdogHang = errors.New("driver: watchdog hang recovery failed")
	// ErrDegraded: switching the device to degraded protection failed.
	ErrDegraded = errors.New("driver: protection degradation failed")
	// ErrQuarantined: the circuit breaker holds the device isolated;
	// operations fast-fail until the quarantine backoff expires.
	ErrQuarantined = errors.New("driver: device quarantined")
)

// Recovery action codes, carried in trace EvRecovery records' Dir field.
const (
	ActRetry   uint8 = 1 // an operation was retried after a fault
	ActReset   uint8 = 2 // the device was reinitialized (Recover)
	ActDegrade uint8 = 3 // protection was degraded to a stricter mode
	ActProbe   uint8 = 4 // quarantine expired; domain tentatively re-admitted
	ActIsolate uint8 = 5 // circuit breaker quarantined the domain
	ActReject  uint8 = 6 // an operation fast-failed while quarantined
)

// RecoverySink observes recovery actions; *trace.Trace satisfies it.
type RecoverySink interface {
	RecordRecovery(action uint8, bdf pci.BDF)
}

// RecoveryStats aggregates a Supervisor's fault-handling activity.
type RecoveryStats struct {
	Retries       uint64 // individual retry attempts
	Recoveries    uint64 // successful device reinitializations
	WatchdogFires uint64 // hangs detected by the watchdog
	Degradations  uint64 // protection-mode degradations performed
	Unrecovered   uint64 // operations abandoned after exhausting retries
	Rejected      uint64 // operations fast-failed while quarantined
}

// SLOStats is the supervisor's recovery-SLO ledger, all in virtual cycles:
// an outage runs from the first failed Do to the next successful one, so
// MTTR and availability are pure functions of the seed.
type SLOStats struct {
	Outages        uint64
	DowntimeCycles uint64
}

// MTTRCycles is the mean time (virtual cycles) to recover from an outage.
func (s SLOStats) MTTRCycles() float64 {
	if s.Outages == 0 {
		return 0
	}
	return float64(s.DowntimeCycles) / float64(s.Outages)
}

// Availability is uptime as a fraction of the given total elapsed cycles.
func (s SLOStats) Availability(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 1
	}
	av := 1 - float64(s.DowntimeCycles)/float64(totalCycles)
	if av < 0 {
		return 0
	}
	return av
}

// Recovery costs in virtual cycles, each charged to cycles.Recovery, and
// the retry backoff. No caller varies them.
const (
	checkCost   = 200     // one watchdog progress check (the timer callback)
	resetCost   = 50_000  // one device reinitialization (~16 µs at 3.1 GHz): ring teardown + refill
	degradeCost = 200_000 // rebuild page tables + remap under the new unit
	isolateCost = 20_000  // detach a quarantine domain's routes, drain in-flight state
	readmitCost = 20_000  // restore them for a probe
	rejectCost  = 100     // one operation bounced off the quarantine check

	// retryBackoff is the first backoff between attempts: small next to a
	// device reset but enough to model the latency cost of fault handling.
	// It doubles after each failed attempt, up to one device reset.
	retryBackoff    = 1_000
	retryBackoffCap = 50_000
)

// Recoverable is the driver capability the recovery layer needs: a full
// device/mapping reinitialization (the OS response to an I/O page fault, §4)
// and a monotonic progress counter the watchdog samples.
type Recoverable interface {
	Recover() error
	Progress() uint64
}

// Watchdog detects hung devices: each Check samples the driver's progress
// counter and reports a hang when it has not advanced since the previous
// Check. Every check charges checkCost to the Recovery component — the
// periodic timer work a real watchdog costs even when nothing is wrong.
type Watchdog struct {
	clk *cycles.Clock

	last   uint64
	primed bool
	Fires  uint64 // hangs detected
	Checks uint64 // total checks performed
}

// NewWatchdog creates a watchdog charging the given clock.
func NewWatchdog(clk *cycles.Clock) *Watchdog {
	return &Watchdog{clk: clk}
}

// Check samples progress and reports whether the device appears hung (no
// forward progress since the previous Check). The first call only primes the
// baseline and never fires.
func (w *Watchdog) Check(progress uint64) bool {
	w.clk.Charge(cycles.Recovery, checkCost)
	w.Checks++
	hung := w.primed && progress == w.last
	w.last, w.primed = progress, true
	if hung {
		w.Fires++
	}
	return hung
}

// Reset re-primes the watchdog (after a device reinitialization, whose
// progress counters may move arbitrarily).
func (w *Watchdog) Reset() { w.primed = false }

// Supervisor ties the pieces together for one device: it runs driver
// operations under bounded retry, reinitializes the device when retries
// alone cannot clear the fault, watches for hangs, degrades its protection
// via DegradeFn when the device keeps needing recovery, and gates all of it
// through the circuit breaker of the device's quarantine domain.
type Supervisor struct {
	clk    *cycles.Clock
	bdf    pci.BDF
	target Recoverable

	// MaxAttempts bounds the retry loop: at most this many tries of an
	// operation, each retry preceded by a virtual-clock backoff
	// (retryBackoff, doubling, capped at retryBackoffCap) and a device
	// reinitialization.
	MaxAttempts int
	Watchdog    *Watchdog

	// DegradeFn, when set, switches the device to a stricter/safer
	// protection mode (e.g. rIOMMU -> baseline strict); it is invoked once,
	// after DegradeAfter device recoveries, and costs degradeCost.
	DegradeFn    func() error
	DegradeAfter uint64
	degraded     bool

	// Sink, when non-nil, records every recovery action (typically
	// *trace.Trace).
	Sink RecoverySink

	// Breaker, when non-nil, circuit-breaks the device's quarantine domain:
	// repeated failures quarantine it (operations fast-fail with
	// ErrQuarantined) until a virtual-clock backoff expires and a probe
	// re-admits it. A device's own breaker holds its isolator; the
	// supervisors of a tenant's devices share one breaker holding every
	// device's isolator, so any of them spends the tenant's error budget
	// and a trip quarantines them all.
	Breaker *Breaker

	Stats RecoveryStats

	slo       SLOStats
	down      bool
	downSince uint64
}

// NewSupervisor wraps a recoverable driver for the device bdf.
func NewSupervisor(clk *cycles.Clock, bdf pci.BDF, target Recoverable) *Supervisor {
	return &Supervisor{
		clk:          clk,
		bdf:          bdf,
		target:       target,
		MaxAttempts:  3,
		Watchdog:     NewWatchdog(clk),
		DegradeAfter: 8,
	}
}

// Degraded reports whether DegradeFn has run.
func (s *Supervisor) Degraded() bool { return s.degraded }

func (s *Supervisor) record(action uint8) {
	if s.Sink != nil {
		s.Sink.RecordRecovery(action, s.bdf)
	}
}

// reinit performs one charged device recovery and the degradation check.
func (s *Supervisor) reinit() error {
	s.clk.Charge(cycles.Recovery, resetCost)
	s.record(ActReset)
	if err := s.target.Recover(); err != nil {
		return err
	}
	s.Stats.Recoveries++
	s.Watchdog.Reset()
	if !s.degraded && s.DegradeFn != nil && s.Stats.Recoveries >= s.DegradeAfter {
		s.clk.Charge(cycles.Recovery, degradeCost)
		s.record(ActDegrade)
		if err := s.DegradeFn(); err != nil {
			return fmt.Errorf("%w: %w", ErrDegraded, err)
		}
		s.degraded = true
		s.Stats.Degradations++
	}
	return nil
}

// attempt runs op up to MaxAttempts times: after each failure it backs off
// (doubling, saturating at retryBackoffCap), reinitializes the device, and
// retries. When every attempt fails the fault is counted unrecovered and the
// last error returned wrapped in ErrRetriesExhausted.
func (s *Supervisor) attempt(op func() error) error {
	attempts := max(s.MaxAttempts, 1)
	backoff := uint64(retryBackoff)
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			s.clk.Charge(cycles.Recovery, backoff)
			backoff = min(2*backoff, retryBackoffCap)
			s.Stats.Retries++
			s.record(ActRetry)
			if rerr := s.reinit(); rerr != nil {
				return fmt.Errorf("driver: recovery failed: %w (after %v)", rerr, err)
			}
		}
		if err = op(); err == nil {
			return nil
		}
	}
	s.Stats.Unrecovered++
	return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempts, err)
}

// Do runs op through the circuit breaker and the retry loop, and keeps the
// SLO ledger. While the quarantine domain is open it fast-fails with
// ErrQuarantined; the first call after the backoff expires re-admits every
// device of the domain and probes it — success closes the breaker, failure
// re-isolates the domain with a doubled backoff.
func (s *Supervisor) Do(op func() error) error {
	b := s.Breaker
	if b != nil {
		ok, probe := b.allow(s.clk.Now())
		if !ok {
			s.clk.Charge(cycles.Recovery, rejectCost)
			s.Stats.Rejected++
			s.record(ActReject)
			s.noteOutcome(true)
			return fmt.Errorf("%w: %s", ErrQuarantined, s.bdf)
		}
		if probe {
			// Re-admit the domain first so the probe exercises the real
			// DMA path rather than the blackhole.
			s.clk.Charge(cycles.Recovery, readmitCost)
			s.record(ActProbe)
			if err := b.readmit(); err != nil {
				s.noteOutcome(true)
				return fmt.Errorf("driver: re-admitting %s: %w", s.bdf, err)
			}
		}
	}
	err := s.attempt(op)
	if b != nil {
		if err == nil {
			b.onSuccess()
		} else if ierr := s.spend(); ierr != nil {
			err = fmt.Errorf("%w; %w", err, ierr)
		}
	}
	s.noteOutcome(err != nil)
	return err
}

// spend feeds one failure to the breaker. When that trips it or fails its
// probe, the whole quarantine domain is isolated.
func (s *Supervisor) spend() error {
	if !s.Breaker.onFailure(s.clk.Now()) {
		return nil
	}
	s.clk.Charge(cycles.Recovery, isolateCost)
	s.record(ActIsolate)
	if err := s.Breaker.isolate(); err != nil {
		return fmt.Errorf("driver: isolating %s: %w", s.bdf, err)
	}
	return nil
}

// noteOutcome advances the SLO ledger: a failure opens an outage (if none is
// running), a success closes it.
func (s *Supervisor) noteOutcome(failed bool) {
	now := s.clk.Now()
	if failed {
		if !s.down {
			s.down, s.downSince = true, now
		}
		return
	}
	if s.down {
		s.slo.Outages++
		s.slo.DowntimeCycles += now - s.downSince
		s.down = false
	}
}

// SLO returns the recovery-SLO ledger; an outage still in progress is
// counted up to the current virtual time.
func (s *Supervisor) SLO() SLOStats {
	out := s.slo
	if s.down {
		out.Outages++
		out.DowntimeCycles += s.clk.Now() - s.downSince
	}
	return out
}

// Watch runs one watchdog check; on a detected hang it reinitializes the
// device. It reports whether a hang was handled. A hang spends the
// breaker's error budget even when the reinit succeeds; while the
// quarantine domain is isolated the watchdog stands down (the breaker owns
// re-admission).
func (s *Supervisor) Watch() (bool, error) {
	if s.Breaker != nil && s.Breaker.Quarantined(s.clk.Now()) {
		s.clk.Charge(cycles.Recovery, rejectCost)
		return false, nil
	}
	if !s.Watchdog.Check(s.target.Progress()) {
		return false, nil
	}
	s.Stats.WatchdogFires++
	if s.Breaker != nil {
		if err := s.spend(); err != nil {
			return true, fmt.Errorf("%w: %w", ErrWatchdogHang, err)
		}
	}
	if err := s.reinit(); err != nil {
		return true, fmt.Errorf("%w: %w", ErrWatchdogHang, err)
	}
	return true, nil
}
