package audit

import (
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/intremap"
	"riommu/internal/pci"
)

func wire(t *testing.T, cfg intremap.Config) (*intremap.Remapper, *IntOracle) {
	t.Helper()
	cpu, dev := &cycles.Clock{}, &cycles.Clock{}
	model := cycles.DefaultModel()
	r, err := intremap.New(cfg, cpu, dev, &model)
	if err != nil {
		t.Fatal(err)
	}
	o := NewIntOracle("test", cpu)
	r.SetObserver(o)
	return r, o
}

func TestIntOracleCleanTraffic(t *testing.T) {
	r, o := wire(t, intremap.Config{TableOrder: 4})
	nic := pci.NewBDF(0, 3, 0)
	idx, err := r.Alloc(nic, 0x20, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.Deliver(nic, idx, 0, 0)
	}
	if o.Violations != 0 || o.Delivered != 5 || o.Allocs != 1 {
		t.Fatalf("clean traffic flagged: %+v", o.ByReason)
	}
}

func TestIntOracleSpoofBlockedAndCounted(t *testing.T) {
	r, o := wire(t, intremap.Config{TableOrder: 4})
	nic, evil := pci.NewBDF(0, 3, 0), pci.NewBDF(0, 6, 0)
	idx, _ := r.Alloc(nic, 0x20, 0, false)
	if out := r.Deliver(evil, idx, 0, 0); out != intremap.BlockedSourceMismatch {
		t.Fatalf("spoof not blocked: %v", out)
	}
	if o.Violations != 0 || o.Blocked != 1 {
		t.Fatalf("blocked spoof misjudged: violations=%d blocked=%d", o.Violations, o.Blocked)
	}
	if o.ByOutcome[intremap.BlockedSourceMismatch.String()] != 1 {
		t.Fatalf("outcome classification: %+v", o.ByOutcome)
	}
}

func TestIntOracleStaleWindow(t *testing.T) {
	r, o := wire(t, intremap.Config{TableOrder: 4, DeferredInv: true, DeferBatch: 16})
	nic := pci.NewBDF(0, 3, 0)
	idx, _ := r.Alloc(nic, 0x20, 0, false)
	r.Deliver(nic, idx, 0, 0) // warm IEC
	if err := r.Free(idx); err != nil {
		t.Fatal(err)
	}
	if out := r.Deliver(nic, idx, 0, 0); out != intremap.Delivered {
		t.Fatalf("stale replay blocked: %v", out)
	}
	if o.Violations != 1 || o.ByReason[IntReasonStale] != 1 {
		t.Fatalf("stale not flagged: %+v", o.ByReason)
	}
	if o.Events[0].Reason != IntReasonStale {
		t.Fatalf("event: %+v", o.Events[0])
	}
}

func TestIntOraclePassThroughNeverFlags(t *testing.T) {
	r, o := wire(t, intremap.Config{PassThrough: true})
	o.SetPassThrough(true)
	evil := pci.NewBDF(0, 6, 0)
	for i := 0; i < 10; i++ {
		r.Deliver(evil, -1, 0x99, 7)
	}
	if o.Violations != 0 || o.Delivered != 10 {
		t.Fatalf("pass-through flagged: violations=%d delivered=%d", o.Violations, o.Delivered)
	}
}

func TestIntOracleWrongCoreAfterMissedRetarget(t *testing.T) {
	// Simulate a delivery to a core the IRTE does not name (constructed by
	// feeding the oracle directly).
	cpu := &cycles.Clock{}
	o := NewIntOracle("test", cpu)
	nic := pci.NewBDF(0, 3, 0)
	o.OnIRTEAlloc(3, intremap.IRTE{Present: true, BDF: nic, Vector: 0x20, DestCore: 2})
	o.OnIntDelivered(intremap.Delivery{Source: nic, Index: 3, Vector: 0x20, Core: 0})
	if o.ByReason[IntReasonWrongCore] != 1 {
		t.Fatalf("wrong-core not flagged: %+v", o.ByReason)
	}
	// Unknown index is wild.
	o.OnIntDelivered(intremap.Delivery{Source: nic, Index: 9, Vector: 0x20, Core: 2})
	if o.ByReason[IntReasonUnmapped] != 1 {
		t.Fatalf("unmapped not flagged: %+v", o.ByReason)
	}
}
