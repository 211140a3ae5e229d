package driver

import (
	"fmt"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/pci"
)

// fakeDriver is a scriptable Recoverable for unit-testing the supervisor.
type fakeDriver struct {
	progress   uint64
	recovers   int
	recoverErr error
}

func (f *fakeDriver) Recover() error {
	f.recovers++
	return f.recoverErr
}

func (f *fakeDriver) Progress() uint64 { return f.progress }

var supBDF = pci.NewBDF(0, 7, 0)

func TestWatchdogDetectsStall(t *testing.T) {
	clk := &cycles.Clock{}
	w := NewWatchdog(clk)
	if w.Check(0) {
		t.Error("first check must only prime")
	}
	if !w.Check(0) {
		t.Error("no progress not detected")
	}
	if w.Check(1) {
		t.Error("progress misreported as a hang")
	}
	if w.Fires != 1 || w.Checks != 3 {
		t.Errorf("Fires=%d Checks=%d", w.Fires, w.Checks)
	}
	if clk.Total(cycles.Recovery) != 3*checkCost {
		t.Errorf("recovery cycles %d, want %d", clk.Total(cycles.Recovery), 3*checkCost)
	}
	w.Reset()
	if w.Check(1) {
		t.Error("check after Reset must only prime")
	}
}

func TestSupervisorRetrySucceeds(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)
	fails := 2
	err := s.Do(func() error {
		if fails > 0 {
			fails--
			return fmt.Errorf("transient fault")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if s.Stats.Retries != 2 || s.Stats.Recoveries != 2 || s.Stats.Unrecovered != 0 {
		t.Errorf("stats %+v", s.Stats)
	}
	if fd.recovers != 2 {
		t.Errorf("driver recovered %d times, want 2", fd.recovers)
	}
	// Backoff doubles: 1000 + 2000, plus two resets.
	want := uint64(retryBackoff + 2*retryBackoff + 2*resetCost)
	if got := clk.Total(cycles.Recovery); got != want {
		t.Errorf("recovery cycles %d, want %d", got, want)
	}
}

func TestSupervisorExhaustsRetries(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)
	err := s.Do(func() error { return fmt.Errorf("permanent fault") })
	if err == nil {
		t.Fatal("Do succeeded on a permanent fault")
	}
	if s.Stats.Unrecovered != 1 {
		t.Errorf("Unrecovered = %d, want 1", s.Stats.Unrecovered)
	}
	if s.Stats.Retries != uint64(s.MaxAttempts-1) {
		t.Errorf("Retries = %d, want %d", s.Stats.Retries, s.MaxAttempts-1)
	}
}

func TestSupervisorWatchRecoversHang(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{progress: 5}
	s := NewSupervisor(clk, supBDF, fd)
	if fired, err := s.Watch(); fired || err != nil {
		t.Fatalf("priming watch fired: %v %v", fired, err)
	}
	fired, err := s.Watch() // progress still 5: hang
	if err != nil || !fired {
		t.Fatalf("stalled watch: fired=%v err=%v", fired, err)
	}
	if s.Stats.WatchdogFires != 1 || s.Stats.Recoveries != 1 || fd.recovers != 1 {
		t.Errorf("stats %+v, recovers %d", s.Stats, fd.recovers)
	}
	fd.progress = 6
	if fired, _ := s.Watch(); fired {
		t.Error("watch fired right after recovery (watchdog not re-primed)")
	}
}

func TestSupervisorDegradesAfterThreshold(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)
	s.DegradeAfter = 2
	degraded := 0
	s.DegradeFn = func() error { degraded++; return nil }
	for i := 0; i < 4; i++ {
		calls := 0
		err := s.Do(func() error {
			calls++
			if calls == 1 {
				return fmt.Errorf("fault %d", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if degraded != 1 {
		t.Errorf("DegradeFn ran %d times, want exactly 1", degraded)
	}
	if !s.Degraded() || s.Stats.Degradations != 1 {
		t.Errorf("Degraded=%v stats %+v", s.Degraded(), s.Stats)
	}
}

type recSink struct{ actions []uint8 }

func (r *recSink) RecordRecovery(a uint8, _ pci.BDF) { r.actions = append(r.actions, a) }

func TestSupervisorRecordsActions(t *testing.T) {
	clk := &cycles.Clock{}
	fd := &fakeDriver{}
	s := NewSupervisor(clk, supBDF, fd)
	sink := &recSink{}
	s.Sink = sink
	fails := 1
	if err := s.Do(func() error {
		if fails > 0 {
			fails--
			return fmt.Errorf("once")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sink.actions) != 2 || sink.actions[0] != ActRetry || sink.actions[1] != ActReset {
		t.Errorf("recorded actions %v, want [retry reset]", sink.actions)
	}
}
