package driver

import (
	"bytes"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/intremap"
)

// wireIRQs attaches a strict-mode remapper to every queue of an MQNIC and
// returns the remapper plus a pointer to the recorded deliveries.
func wireIRQs(t *testing.T, mq *MQNIC) (*intremap.Remapper, *[]intremap.Delivery) {
	t.Helper()
	cpu, dev := &cycles.Clock{}, &cycles.Clock{}
	model := cycles.DefaultModel()
	rem, err := intremap.New(intremap.Config{TableOrder: 6}, cpu, dev, &model)
	if err != nil {
		t.Fatal(err)
	}
	var log []intremap.Delivery
	rem.SetSink(func(d intremap.Delivery) { log = append(log, d) })
	for q, drv := range mq.Queues {
		src, err := rem.NewSource(bdf, q, q, false)
		if err != nil {
			t.Fatalf("queue %d source: %v", q, err)
		}
		drv.SetIRQ(src)
	}
	return rem, &log
}

func TestReapFiresCompletionInterrupts(t *testing.T) {
	mq, _ := mqFixture(t, 2)
	_, log := wireIRQs(t, mq)
	payload := bytes.Repeat([]byte{3}, 600)
	for i := 0; i < 4; i++ {
		if err := mq.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mq.PumpAndReapAll(); err != nil {
		t.Fatal(err)
	}
	// Each queue transmitted a burst: one coalesced Tx interrupt per queue.
	if len(*log) != 2 {
		t.Fatalf("deliveries = %d, want 2: %+v", len(*log), *log)
	}
	for i, d := range *log {
		if d.Core != i {
			t.Errorf("queue %d interrupt landed on core %d", i, d.Core)
		}
	}
}

// TestRecoverDropsPendingInterrupts is the regression test for the queue
// reset teardown gap: completions latched before MQNIC.Recover must never
// be delivered afterwards — the descriptors they refer to no longer exist.
func TestRecoverDropsPendingInterrupts(t *testing.T) {
	mq, _ := mqFixture(t, 2)
	_, log := wireIRQs(t, mq)
	payload := bytes.Repeat([]byte{9}, 600)
	for i := 0; i < 4; i++ {
		if err := mq.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	// Transmit without reaping: completions are now latched in each
	// queue's interrupt source, undelivered.
	for _, drv := range mq.Queues {
		if _, err := drv.PumpTx(int(drv.TxRing().Pending())); err != nil {
			t.Fatal(err)
		}
	}
	for q, drv := range mq.Queues {
		if src := drv.IRQ().(*intremap.Source); src.Pending() == 0 {
			t.Fatalf("queue %d latched nothing before reset", q)
		}
	}

	if err := mq.Recover(); err != nil {
		t.Fatal(err)
	}

	// Post-reset reaps must replay nothing.
	if _, err := mq.PumpAndReapAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := mq.ReapRxAll(); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 0 {
		t.Fatalf("recovered queues replayed %d pre-reset completions: %+v", len(*log), *log)
	}
	for q, drv := range mq.Queues {
		src := drv.IRQ().(*intremap.Source)
		if src.Pending() != 0 {
			t.Errorf("queue %d: pending=%d after reset", q, src.Pending())
		}
	}
}
