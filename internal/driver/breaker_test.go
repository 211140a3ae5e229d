package driver

import (
	"errors"
	"fmt"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/pci"
)

// fakeIsolator records quarantine transitions.
type fakeIsolator struct {
	isolated               bool
	isolates, readmits     int
	isolateErr, readmitErr error
}

func (f *fakeIsolator) Isolate() error {
	f.isolates++
	if f.isolateErr != nil {
		return f.isolateErr
	}
	f.isolated = true
	return nil
}

func (f *fakeIsolator) Readmit() error {
	f.readmits++
	if f.readmitErr != nil {
		return f.readmitErr
	}
	f.isolated = false
	return nil
}

func newBreakerSup(fd *fakeDriver) (*Supervisor, *fakeIsolator, *cycles.Clock) {
	clk := &cycles.Clock{}
	s := NewSupervisor(clk, supBDF, fd)
	s.Breaker = NewBreaker()
	iso := &fakeIsolator{}
	s.Breaker.AddIsolator(iso)
	return s, iso, clk
}

func failOp() error { return fmt.Errorf("device fault") }

// TestSentinelErrors: every recovery outcome is distinguishable with
// errors.Is — the point of the exported sentinels.
func TestSentinelErrors(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)

	err := s.Do(failOp)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("exhausted retries not wrapped in ErrRetriesExhausted: %v", err)
	}

	// Watchdog hang whose recovery fails.
	fd.recoverErr = fmt.Errorf("reset register stuck")
	s.Watch() // prime
	if _, werr := s.Watch(); !errors.Is(werr, ErrWatchdogHang) {
		t.Errorf("failed hang recovery not wrapped in ErrWatchdogHang: %v", werr)
	}
	fd.recoverErr = nil

	// Degradation failure.
	s2 := NewSupervisor(clk, supBDF, fd)
	s2.DegradeAfter = 1
	s2.DegradeFn = func() error { return fmt.Errorf("no fallback unit") }
	fails := 1
	err = s2.Do(func() error {
		if fails > 0 {
			fails--
			return fmt.Errorf("once")
		}
		return nil
	})
	if !errors.Is(err, ErrDegraded) {
		t.Errorf("degradation failure not wrapped in ErrDegraded: %v", err)
	}
}

// TestRetryBackoffCeilingSaturates: with many attempts the doubling backoff
// must clamp at retryBackoffCap instead of growing geometrically.
func TestRetryBackoffCeilingSaturates(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)
	s.MaxAttempts = 9
	err := s.Do(failOp)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("want exhaustion, got %v", err)
	}
	// Backoffs charged: 1k doubling to 32k, then clamped at 50k twice.
	wantBackoff := uint64(1_000 + 2_000 + 4_000 + 8_000 + 16_000 + 32_000 + 50_000 + 50_000)
	got := clk.Total(cycles.Recovery) - 8*resetCost // 8 reinits between 9 attempts
	if got != wantBackoff {
		t.Errorf("backoff cycles = %d, want %d (ceiling not applied)", got, wantBackoff)
	}
}

// TestWatchdogReprimesAfterReset: a supervisor-level regression check on top
// of the unit test — after a handled hang the next Watch must prime, not
// fire, even when the recovered driver's progress counter moved backwards.
func TestWatchdogReprimesAfterReset(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{progress: 100}
	s := NewSupervisor(clk, supBDF, fd)
	s.Watch() // prime at 100
	if fired, err := s.Watch(); !fired || err != nil {
		t.Fatalf("hang not handled: fired=%v err=%v", fired, err)
	}
	// Recover reset the device: progress restarts from zero and then stalls
	// there for one check — the re-primed watchdog must treat the first
	// post-reset check as priming, not as "no progress since 100".
	fd.progress = 0
	if fired, _ := s.Watch(); fired {
		t.Error("watch fired on the priming check after reset")
	}
	if fired, _ := s.Watch(); !fired {
		t.Error("genuine post-reset stall not detected")
	}
}

// TestOpsWhileDegraded: after degradation the supervisor keeps operating,
// never re-degrades, and failures keep being retried normally.
func TestOpsWhileDegraded(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)
	s.DegradeAfter = 1
	degrades := 0
	s.DegradeFn = func() error { degrades++; return nil }

	for round := 0; round < 5; round++ {
		fails := 1
		if err := s.Do(func() error {
			if fails > 0 {
				fails--
				return fmt.Errorf("round %d", round)
			}
			return nil
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if degrades != 1 || s.Stats.Degradations != 1 {
		t.Errorf("degraded %d times (stats %d), want exactly 1", degrades, s.Stats.Degradations)
	}
	if !s.Degraded() {
		t.Error("Degraded() false after degradation")
	}
	if s.Stats.Recoveries != 5 {
		t.Errorf("Recoveries = %d, want 5 (ops after degradation still recover)", s.Stats.Recoveries)
	}
}

// TestBreakerTripsAndQuarantines: repeated failures trip the breaker, the
// device is isolated, and subsequent ops fast-fail with ErrQuarantined
// without invoking the operation at all — never looping over reinit.
func TestBreakerTripsAndQuarantines(t *testing.T) {
	fd := &fakeDriver{}
	s, iso, _ := newBreakerSup(fd)

	for i := 0; i < tripStreak; i++ {
		if err := s.Do(failOp); errors.Is(err, ErrQuarantined) {
			t.Fatalf("quarantined after only %d failures", i)
		}
	}
	if s.Breaker.State() != BreakerOpen || s.Breaker.Trips != 1 {
		t.Fatalf("breaker state %s trips %d, want open/1", s.Breaker.State(), s.Breaker.Trips)
	}
	if !iso.isolated || iso.isolates != 1 {
		t.Fatalf("device not isolated exactly once: %+v", iso)
	}

	ran := false
	err := s.Do(func() error { ran = true; return nil })
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("op while quarantined: %v", err)
	}
	if ran {
		t.Error("quarantined op still executed")
	}
	if s.Stats.Rejected == 0 {
		t.Error("rejected op not counted")
	}
}

// TestBreakerProbeReadmission: once the virtual-clock backoff expires the
// next op re-admits the device and probes it; success closes the breaker.
func TestBreakerProbeReadmission(t *testing.T) {
	fd := &fakeDriver{}
	s, iso, clk := newBreakerSup(fd)
	for i := 0; i < tripStreak; i++ {
		_ = s.Do(failOp)
	}
	if s.Breaker.State() != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	// Let the quarantine expire on the virtual clock.
	clk.Charge(cycles.Recovery, s.Breaker.BackoffCycles)
	if err := s.Do(func() error { return nil }); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if s.Breaker.State() != BreakerClosed || s.Breaker.Readmissions != 1 || s.Breaker.Probes != 1 {
		t.Errorf("state %s readmissions %d probes %d, want closed/1/1",
			s.Breaker.State(), s.Breaker.Readmissions, s.Breaker.Probes)
	}
	if iso.isolated || iso.readmits != 1 {
		t.Errorf("device not re-admitted exactly once: %+v", iso)
	}
}

// TestBreakerFailedProbeDoublesBackoff: a failing probe re-isolates the
// device and the quarantine doubles, saturating at MaxBackoffCycles.
func TestBreakerFailedProbeDoublesBackoff(t *testing.T) {
	fd := &fakeDriver{}
	s, iso, clk := newBreakerSup(fd)
	s.Breaker.MaxBackoffCycles = 4 * s.Breaker.BackoffCycles
	for i := 0; i < tripStreak; i++ {
		_ = s.Do(failOp)
	}
	base := s.Breaker.BackoffCycles
	wantBackoffs := []uint64{2 * base, 4 * base, 4 * base} // doubling then clamped
	for i, want := range wantBackoffs {
		clk.Charge(cycles.Recovery, s.Breaker.MaxBackoffCycles) // expire any backoff
		if err := s.Do(failOp); errors.Is(err, ErrQuarantined) {
			t.Fatalf("probe %d rejected instead of attempted", i)
		}
		if s.Breaker.State() != BreakerOpen {
			t.Fatalf("probe %d: state %s, want open", i, s.Breaker.State())
		}
		if got := s.Breaker.backoff; got != want {
			t.Errorf("probe %d: backoff %d, want %d", i, got, want)
		}
	}
	if iso.isolates != 4 || s.Breaker.Quarantines != 4 { // initial trip + three failed probes
		t.Errorf("isolates = %d, quarantines = %d, want 4", iso.isolates, s.Breaker.Quarantines)
	}
}

// TestReinitFailingRepeatedlyTripsBreaker: the ISSUE's edge case — a device
// whose Recover always fails must end up quarantined (fast-fail), not stuck
// in an unbounded retry/reinit loop.
func TestReinitFailingRepeatedlyTripsBreaker(t *testing.T) {
	fd := &fakeDriver{recoverErr: fmt.Errorf("device gone")}
	s, iso, _ := newBreakerSup(fd)
	for i := 0; i < 20; i++ {
		err := s.Do(failOp)
		if err == nil {
			t.Fatalf("round %d: Do succeeded with a dead device", i)
		}
		if errors.Is(err, ErrQuarantined) {
			if i < tripStreak {
				t.Fatalf("quarantined too early (round %d)", i)
			}
			if !iso.isolated {
				t.Fatal("quarantined but not isolated")
			}
			// Reinit attempts must have stopped growing: quarantined ops
			// never reach the retry loop.
			before := fd.recovers
			_ = s.Do(failOp)
			if fd.recovers != before {
				t.Error("quarantined op still reinitialized the device")
			}
			return
		}
	}
	t.Fatal("20 rounds of failing reinit never tripped the breaker")
}

// TestSupervisorSLOAccounting: outage bookkeeping is exact on the virtual
// clock — one outage from first failure to next success.
func TestSupervisorSLOAccounting(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)
	s.MaxAttempts = 1 // no retries: failures surface directly

	if err := s.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if slo := s.SLO(); slo.Outages != 0 || slo.DowntimeCycles != 0 {
		t.Fatalf("clean op opened an outage: %+v", slo)
	}

	_ = s.Do(failOp) // outage opens at current clk
	clk.Charge(cycles.Recovery, 1_000)
	_ = s.Do(failOp) // still down: same outage
	clk.Charge(cycles.Recovery, 2_000)
	if err := s.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	slo := s.SLO()
	if slo.Outages != 1 {
		t.Errorf("Outages = %d, want 1", slo.Outages)
	}
	if slo.DowntimeCycles != 3_000 {
		t.Errorf("DowntimeCycles = %d, want 3000", slo.DowntimeCycles)
	}
	if slo.MTTRCycles() != 3_000 {
		t.Errorf("MTTR = %v, want 3000", slo.MTTRCycles())
	}
	if av := slo.Availability(30_000); av != 0.9 {
		t.Errorf("Availability = %v, want 0.9", av)
	}

	// An open outage is counted up to "now" without mutating the ledger.
	_ = s.Do(failOp)
	clk.Charge(cycles.Recovery, 500)
	if slo := s.SLO(); slo.Outages != 2 || slo.DowntimeCycles != 3_500 {
		t.Errorf("open outage not counted: %+v", slo)
	}
	if s.slo.Outages != 1 {
		t.Error("SLO() mutated the underlying ledger")
	}
}

// sharedFleet builds one supervisor per device, every one of them on the
// same clock, without retries and sharing one breaker that holds each
// device's isolator: a tenant's quarantine domain.
func sharedFleet(n int) (*Breaker, []*Supervisor, []*fakeIsolator, *cycles.Clock) {
	clk := &cycles.Clock{}
	br := NewBreaker()
	sups := make([]*Supervisor, n)
	isos := make([]*fakeIsolator, n)
	for i := range sups {
		isos[i] = &fakeIsolator{}
		br.AddIsolator(isos[i])
		sups[i] = NewSupervisor(clk, pci.NewBDF(1, uint8(i), 0), &fakeDriver{})
		sups[i].MaxAttempts = 1
		sups[i].Breaker = br
	}
	return br, sups, isos, clk
}

// TestSharedBreakerTripIsolatesFleet: failures from any device of the
// domain spend one budget, and the trip isolates every device exactly once.
func TestSharedBreakerTripIsolatesFleet(t *testing.T) {
	br, sups, isos, clk := sharedFleet(3)
	for i := 0; i < tripStreak-1; i++ {
		if err := sups[i%len(sups)].Do(failOp); errors.Is(err, ErrQuarantined) {
			t.Fatalf("failure %d: quarantined early", i)
		}
	}
	if br.State() != BreakerClosed || br.Quarantines != 0 {
		t.Fatalf("state %s quarantines %d before the trip threshold", br.State(), br.Quarantines)
	}
	before := clk.Total(cycles.Recovery)
	_ = sups[(tripStreak-1)%len(sups)].Do(failOp)
	if br.State() != BreakerOpen || br.Trips != 1 || br.Quarantines != 1 {
		t.Fatalf("state %s trips %d quarantines %d, want open/1/1", br.State(), br.Trips, br.Quarantines)
	}
	for i, iso := range isos {
		if !iso.isolated || iso.isolates != 1 {
			t.Fatalf("isolator %d not isolated exactly once: %+v", i, iso)
		}
	}
	if got := clk.Total(cycles.Recovery) - before; got != isolateCost {
		t.Errorf("trip charged %d recovery cycles, want %d", got, isolateCost)
	}
	for i, s := range sups {
		ran := false
		if err := s.Do(func() error { ran = true; return nil }); !errors.Is(err, ErrQuarantined) || ran {
			t.Errorf("supervisor %d ran inside the backoff: ran=%v err=%v", i, ran, err)
		}
	}
}

// TestSharedBreakerReadmission: after the backoff the first operation on
// any device of the domain is the probe; it re-admits every device, and
// its success closes the breaker.
func TestSharedBreakerReadmission(t *testing.T) {
	br, sups, isos, clk := sharedFleet(2)
	for i := 0; i < tripStreak; i++ {
		_ = sups[0].Do(failOp)
	}
	if !isos[0].isolated || !isos[1].isolated {
		t.Fatal("trip did not isolate the fleet")
	}
	clk.Charge(cycles.Recovery, br.BackoffCycles)
	if err := sups[1].Do(func() error { return nil }); err != nil {
		t.Fatalf("probe refused after backoff: %v", err)
	}
	for i, iso := range isos {
		if iso.isolated || iso.readmits != 1 {
			t.Errorf("isolator %d not re-admitted exactly once: %+v", i, iso)
		}
	}
	if br.State() != BreakerClosed || br.Probes != 1 || br.Readmissions != 1 || br.Quarantines != 1 {
		t.Errorf("state %s probes %d readmissions %d quarantines %d, want closed/1/1/1",
			br.State(), br.Probes, br.Readmissions, br.Quarantines)
	}
}

// TestSupervisorSharedBreakerBlastRadius: failures alternating between two
// devices of one tenant quarantine both, while a supervisor of another
// tenant — same clock, its own breaker — never notices.
func TestSupervisorSharedBreakerBlastRadius(t *testing.T) {
	br, sups, isos, clk := sharedFleet(2)
	other := NewSupervisor(clk, pci.NewBDF(2, 0, 0), &fakeDriver{})
	other.Breaker = NewBreaker()
	otherIso := &fakeIsolator{}
	other.Breaker.AddIsolator(otherIso)

	boom := errors.New("boom")
	fail := func() error { return boom }
	okOp := func() error { return nil }
	for i := 0; i < tripStreak; i++ {
		if err := sups[i%2].Do(fail); !errors.Is(err, boom) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if br.State() != BreakerOpen {
		t.Fatal("cross-device failures did not spend the shared budget")
	}
	if !isos[0].isolated || !isos[1].isolated {
		t.Fatal("trip did not isolate the whole fleet")
	}
	if err := sups[0].Do(okOp); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined supervisor ran: %v", err)
	}
	if sups[0].Stats.Rejected != 1 {
		t.Fatalf("Rejected = %d", sups[0].Stats.Rejected)
	}
	if err := other.Do(okOp); err != nil {
		t.Fatalf("other tenant affected: %v", err)
	}
	if slo := other.SLO(); slo.Outages != 0 || slo.DowntimeCycles != 0 {
		t.Fatalf("other tenant's SLO moved: %+v", slo)
	}
	if other.Breaker.State() != BreakerClosed || otherIso.isolates != 0 {
		t.Fatalf("other tenant's breaker moved: %s, %+v", other.Breaker.State(), otherIso)
	}
}

// TestWatchStandsDownWhileSharedBreakerOpen: Watch consults the breaker the
// supervisor shares. A hang on one device spends the domain's budget, so
// one failure fewer trips it; while the domain is quarantined, a hung
// device's watchdog stands down instead of reinitializing it.
func TestWatchStandsDownWhileSharedBreakerOpen(t *testing.T) {
	br, sups, _, clk := sharedFleet(2)
	hung := &fakeDriver{progress: 5}
	sups[1].target = hung
	sups[1].Watch() // prime
	if fired, err := sups[1].Watch(); !fired || err != nil {
		t.Fatalf("hang not handled: fired=%v err=%v", fired, err)
	}
	for i := 0; i < tripStreak-1; i++ {
		_ = sups[0].Do(failOp)
	}
	if br.Trips != 1 {
		t.Fatalf("trips = %d after a hang and %d failures, want 1 (the hang spent no budget)", br.Trips, tripStreak-1)
	}
	before := clk.Total(cycles.Recovery)
	if fired, err := sups[1].Watch(); fired || err != nil {
		t.Fatalf("watch on a quarantined domain: fired=%v err=%v", fired, err)
	}
	if hung.recovers != 1 || sups[1].Stats.WatchdogFires != 1 || br.Quarantines != 1 {
		t.Errorf("quarantined hang handled: recovers %d fires %d quarantines %d, want 1/1/1",
			hung.recovers, sups[1].Stats.WatchdogFires, br.Quarantines)
	}
	if got := clk.Total(cycles.Recovery) - before; got != rejectCost {
		t.Errorf("standing down charged %d cycles, want %d", got, rejectCost)
	}
}
