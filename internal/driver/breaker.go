package driver

// Circuit breaking for a quarantine domain that keeps failing: one device,
// or a tenant's whole fleet when every supervisor of the tenant shares one
// Breaker. The supervisor handles individual faults (retry, reset, degrade);
// the breaker handles the domain that keeps failing anyway. After tripStreak
// consecutive failures or a blown error budget it opens, every isolator it
// holds detaches its device from its translation unit (a dma.Router
// Blackhole route), and every operation fast-fails with ErrQuarantined
// until a virtual-clock backoff expires. The first operation after that is
// a probe: every device is tentatively re-admitted (half-open); success
// closes the breaker, failure re-isolates them with a doubled backoff,
// capped at MaxBackoffCycles. All timing is virtual-clock, so campaign
// quarantine windows are seed-deterministic.

// The breaker's fixed trip policy.
const (
	tripStreak   = 4         // consecutive failures that open the breaker
	budgetWindow = 5_000_000 // virtual cycles over which Budget counts failures
)

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState uint8

// The breaker states.
const (
	BreakerClosed   BreakerState = iota // normal operation
	BreakerOpen                         // quarantined: operations fast-fail
	BreakerHalfOpen                     // backoff expired: one probe in flight
)

// String names the state for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Isolator detaches a device from (and re-admits it to) its DMA translation
// path; sim.System.IsolatorFor builds one over dma.Router.
type Isolator interface {
	Isolate() error
	Readmit() error
}

// Breaker is a circuit breaker on virtual time over one quarantine domain:
// the devices whose isolators it holds. The zero value is unusable;
// NewBreaker supplies the defaults. A Supervisor with a nil Breaker never
// trips, and a Breaker with no isolators quarantines logically (fast-fail
// only).
type Breaker struct {
	// Budget opens the breaker when more than Budget failures accumulate
	// within one budgetWindow (0 disables the budget trigger).
	Budget uint64

	// BackoffCycles is the first quarantine length; each failed probe
	// doubles it up to MaxBackoffCycles (0 = unbounded).
	BackoffCycles    uint64
	MaxBackoffCycles uint64

	isolators []Isolator

	state    BreakerState
	consec   uint64 // consecutive failures while closed
	winStart uint64 // error-budget window start (virtual cycles)
	winFails uint64
	backoff  uint64 // current quarantine length
	reopenAt uint64 // virtual time the quarantine expires

	// Trips counts closed→open transitions, Probes open→half-open,
	// Readmissions half-open→closed, and Quarantines every isolation of the
	// domain: the trips plus the failed probes.
	Trips, Probes, Readmissions, Quarantines uint64
}

// NewBreaker returns a breaker with campaign-scale defaults: trip on
// tripStreak consecutive failures or >16 failures per budgetWindow,
// quarantine for 100k cycles doubling to 1.6M.
func NewBreaker() *Breaker {
	return &Breaker{
		Budget:           16,
		BackoffCycles:    100_000,
		MaxBackoffCycles: 1_600_000,
	}
}

// AddIsolator puts one device into the breaker's quarantine domain: a trip
// isolates it and a probe re-admits it, with every other device the
// breaker holds.
func (b *Breaker) AddIsolator(iso Isolator) { b.isolators = append(b.isolators, iso) }

// State returns the current breaker state.
func (b *Breaker) State() BreakerState { return b.state }

// Quarantined reports whether an operation at virtual time now would be
// rejected (open, backoff not yet expired).
func (b *Breaker) Quarantined(now uint64) bool {
	return b.state == BreakerOpen && now < b.reopenAt
}

// allow decides whether an operation may proceed at virtual time now. Once
// an open breaker's backoff has expired it moves to half-open and reports
// the operation as the probe; the caller re-admits the domain first.
func (b *Breaker) allow(now uint64) (ok, probe bool) {
	if b.state != BreakerOpen {
		return true, false
	}
	if now < b.reopenAt {
		return false, false
	}
	b.state = BreakerHalfOpen
	b.Probes++
	return true, true
}

// onSuccess records a successful operation; a successful probe closes the
// breaker (half-open → closed): the domain earned its way back.
func (b *Breaker) onSuccess() {
	b.consec = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.backoff = b.BackoffCycles
		b.Readmissions++
	}
}

// onFailure records a failed operation at virtual time now. It reports
// whether the caller must (re-)isolate the domain: either the breaker just
// tripped (closed → open) or a probe failed and quarantine resumes with a
// doubled backoff (half-open → open).
func (b *Breaker) onFailure(now uint64) bool {
	if now-b.winStart > budgetWindow {
		b.winStart = now
		b.winFails = 0
	}
	b.winFails++
	b.consec++
	switch b.state {
	case BreakerHalfOpen:
		// Failed probe: back to quarantine, longer this time.
		b.backoff *= 2
		if b.MaxBackoffCycles > 0 && b.backoff > b.MaxBackoffCycles {
			b.backoff = b.MaxBackoffCycles
		}
	case BreakerClosed:
		if b.consec < tripStreak && (b.Budget == 0 || b.winFails <= b.Budget) {
			return false
		}
		if b.backoff == 0 {
			b.backoff = b.BackoffCycles
		}
		b.Trips++
	default:
		return false
	}
	b.state = BreakerOpen
	b.reopenAt = now + b.backoff
	b.Quarantines++
	return true
}

// isolate detaches every device of the domain.
func (b *Breaker) isolate() error {
	for _, iso := range b.isolators {
		if err := iso.Isolate(); err != nil {
			return err
		}
	}
	return nil
}

// readmit restores every device of the domain to its translation path.
func (b *Breaker) readmit() error {
	for _, iso := range b.isolators {
		if err := iso.Readmit(); err != nil {
			return err
		}
	}
	return nil
}
