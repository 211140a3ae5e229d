package driver

import (
	"bytes"
	"testing"

	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/mem"
)

// mqFixture wires a 4-queue NIC under real rIOMMU protection.
func mqFixture(t *testing.T, queues int) (*MQNIC, *core.RIOMMU) {
	t.Helper()
	mm := mustMem(t, 1<<14*mem.PageSize)
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hw := core.New(clk, &model, mm)
	profile := device.ProfileBRCM
	profile.RxEntries = 64
	profile.TxEntries = 64
	drv, err := core.NewDriver(clk, &model, mm, hw, bdf, RIOMMURingSizesQ(profile, queues), true)
	if err != nil {
		t.Fatal(err)
	}
	eng := dma.NewEngine(mm, hw)
	mq, err := NewMQNIC(mm, drv, eng, profile, bdf, queues)
	if err != nil {
		t.Fatal(err)
	}
	return mq, hw
}

func TestMQNICValidation(t *testing.T) {
	mm := mustMem(t, 256*mem.PageSize)
	eng := dma.NewEngine(mm, nil)
	if _, err := NewMQNIC(mm, NoProtection{}, eng, device.ProfileBRCM, bdf, 0); err == nil {
		t.Error("zero queues should fail")
	}
}

func TestMQNICRoundRobinSend(t *testing.T) {
	mq, _ := mqFixture(t, 4)
	payload := bytes.Repeat([]byte{7}, 600)
	for i := 0; i < 8; i++ {
		if err := mq.Send(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Round-robin: each of the 4 queues holds 2 packets.
	for q, drv := range mq.Queues {
		if got := drv.TxRing().Pending(); got != 2 {
			t.Errorf("queue %d pending = %d, want 2", q, got)
		}
	}
	n, err := mq.PumpAndReapAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("reaped %d packets", n)
	}
	if err := mq.Teardown(); err != nil {
		t.Fatal(err)
	}
}

func TestMQNICPerQueueRx(t *testing.T) {
	mq, _ := mqFixture(t, 2)
	if err := mq.Deliver(0, []byte("q0")); err != nil {
		t.Fatal(err)
	}
	if err := mq.Deliver(1, []byte("q1")); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, drv := range mq.Queues {
		fs, err := drv.ReapRxFrames()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fs...)
	}
	if len(frames) != 2 || string(frames[0]) != "q0" || string(frames[1]) != "q1" {
		t.Errorf("frames = %q", frames)
	}
	if err := mq.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestMQNICIndependentRIOTLBEntries verifies the scalability property: each
// queue's flat tables get their own rIOTLB entries, so concurrent queues do
// not thrash each other's single entry.
func TestMQNICIndependentRIOTLBEntries(t *testing.T) {
	const queues = 4
	mq, hw := mqFixture(t, queues)
	payload := bytes.Repeat([]byte{1}, 600)
	// Interleave traffic across all queues.
	for i := 0; i < 4*queues; i++ {
		if err := mq.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, drv := range mq.Queues {
		if _, err := drv.PumpTx(4); err != nil {
			t.Fatal(err)
		}
	}
	// One rIOTLB entry per active flat table: 4 Tx tables + the static
	// table (descriptor fetches).
	if got := hw.TLBEntries(); got != queues+1 {
		t.Errorf("rIOTLB entries = %d, want %d (one per active ring)", got, queues+1)
	}
	// Interleaving across queues must not defeat prefetching within each
	// queue: per queue the 4 sequential buffer accesses hit the prefetched
	// next entry after the first.
	st := hw.Stats()
	if st.PrefetchHits < uint64(queues*(4-1)) {
		t.Errorf("prefetch hits = %d, want >= %d despite cross-queue interleaving",
			st.PrefetchHits, queues*3)
	}
	for _, drv := range mq.Queues {
		if _, err := drv.ReapTx(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mq.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestMQNICBurstInvalidations: invalidations stay one-per-burst-per-queue.
func TestMQNICBurstInvalidations(t *testing.T) {
	const queues = 2
	mq, hw := mqFixture(t, queues)
	payload := bytes.Repeat([]byte{1}, 600)
	for i := 0; i < 10*queues; i++ {
		if err := mq.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	before := hw.Stats().Invalidations
	if _, err := mq.PumpAndReapAll(); err != nil {
		t.Fatal(err)
	}
	if got := hw.Stats().Invalidations - before; got != queues {
		t.Errorf("invalidations = %d for %d per-queue bursts, want %d", got, queues, queues)
	}
	if err := mq.Teardown(); err != nil {
		t.Fatal(err)
	}
}
