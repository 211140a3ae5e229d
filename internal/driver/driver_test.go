package driver

import (
	"bytes"
	"testing"

	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/ring"
)

var bdf = pci.NewBDF(0, 3, 0)

func TestBufferPoolCarving(t *testing.T) {
	mm := mustMem(t, 16*mem.PageSize)
	p := NewBufferPool(mm, 2048)
	if p.BufSize() != 2048 {
		t.Fatalf("BufSize = %d", p.BufSize())
	}
	a, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	// Two 2 KiB buffers share the first frame.
	if mem.PFNOf(a) != mem.PFNOf(b) {
		t.Errorf("first two buffers on different frames: %#x %#x", a, b)
	}
	if a == b {
		t.Error("duplicate buffer")
	}
	if p.Outstanding() != 2 {
		t.Errorf("Outstanding = %d", p.Outstanding())
	}
	p.Put(a)
	p.Put(b)
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolDefaults(t *testing.T) {
	mm := mustMem(t, 16*mem.PageSize)
	if NewBufferPool(mm, 0).BufSize() != DefaultBufferSize {
		t.Error("default buffer size not applied")
	}
	if NewBufferPool(mm, 3*mem.PageSize).BufSize() != mem.PageSize {
		t.Error("oversized buffers should clamp to a page")
	}
}

func TestBufferPoolDestroyGuards(t *testing.T) {
	mm := mustMem(t, 16*mem.PageSize)
	p := NewBufferPool(mm, 2048)
	pa, _ := p.Get()
	if err := p.Destroy(); err == nil {
		t.Error("Destroy with outstanding buffers should fail")
	}
	p.Put(pa)
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolGrows(t *testing.T) {
	mm := mustMem(t, 64*mem.PageSize)
	p := NewBufferPool(mm, mem.PageSize)
	seen := map[mem.PA]bool{}
	for i := 0; i < 20; i++ {
		pa, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		if seen[pa] {
			t.Fatal("duplicate buffer while growing")
		}
		seen[pa] = true
	}
}

func TestNoProtection(t *testing.T) {
	var p NoProtection
	iova, err := p.Map(0, mem.PA(0x1234), 64, pci.DirBidi)
	if err != nil || iova != 0x1234 {
		t.Errorf("Map = %#x, %v", iova, err)
	}
	if err := p.Unmap(0, 0x1234, 64, true); err != nil {
		t.Errorf("Unmap: %v", err)
	}
}

// identityNIC builds a NICDriver over NoProtection/Identity for direct
// driver-level tests.
func identityNIC(t *testing.T, profile device.NICProfile) (*NICDriver, *device.NIC, *mem.PhysMem) {
	t.Helper()
	mm := mustMem(t, 1<<14*mem.PageSize)
	eng := dma.NewEngine(mm, iommu.Identity{})
	drv, nic, err := NewNICDriver(mm, NoProtection{}, eng, profile, bdf)
	if err != nil {
		t.Fatal(err)
	}
	return drv, nic, mm
}

func TestRIOMMURingSizes(t *testing.T) {
	sizes := RIOMMURingSizes(device.ProfileMLX)
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	if sizes[RingStatic] < 2 {
		t.Error("static ring too small")
	}
	wantRx := 2 * device.ProfileMLX.RxEntries * uint32(device.ProfileMLX.BuffersPerPacket)
	if sizes[RingRx] != wantRx {
		t.Errorf("RingRx size = %d, want %d", sizes[RingRx], wantRx)
	}
}

func TestRxRingStartsFull(t *testing.T) {
	drv, _, _ := identityNIC(t, device.ProfileBRCM)
	if !drv.RxRing().Full() {
		t.Error("Rx ring should start full of posted buffers")
	}
	if err := drv.Teardown(); err != nil {
		t.Fatal(err)
	}
}

func TestSendEmptyPayload(t *testing.T) {
	drv, _, _ := identityNIC(t, device.ProfileBRCM)
	if err := drv.Send(nil); err == nil {
		t.Error("empty payload should fail")
	}
}

func TestSendInlineValidation(t *testing.T) {
	drv, nic, _ := identityNIC(t, device.ProfileBRCM)
	nic.CaptureTx = true
	if err := drv.SendInline(nil); err == nil {
		t.Error("empty inline payload should fail")
	}
	if err := drv.SendInline(bytes.Repeat([]byte{1}, 9)); err == nil {
		t.Error("9-byte inline payload should fail")
	}
	if err := drv.SendInline([]byte{0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
	if n, err := drv.PumpTx(1); err != nil || n != 1 {
		t.Fatalf("PumpTx = %d, %v", n, err)
	}
	if !bytes.Equal(nic.LastTx, []byte{0xaa, 0xbb}) {
		t.Errorf("inline wire payload = %v", nic.LastTx)
	}
	if n, err := drv.ReapTx(); err != nil || n != 1 {
		t.Fatalf("ReapTx = %d, %v", n, err)
	}
}

func TestMixedInlineAndBufferedReap(t *testing.T) {
	drv, _, _ := identityNIC(t, device.ProfileMLX) // 2 buffers/packet
	if err := drv.Send(bytes.Repeat([]byte{1}, 500)); err != nil {
		t.Fatal(err)
	}
	if err := drv.SendInline([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := drv.Send(bytes.Repeat([]byte{3}, 500)); err != nil {
		t.Fatal(err)
	}
	if n, err := drv.PumpTx(10); err != nil || n != 3 {
		t.Fatalf("PumpTx = %d, %v", n, err)
	}
	n, err := drv.ReapTx()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("reaped %d packets, want 3 (2 buffered + 1 inline)", n)
	}
	if err := drv.Teardown(); err != nil {
		t.Fatal(err)
	}
}

func TestTxRingBackpressure(t *testing.T) {
	profile := device.ProfileBRCM
	profile.TxEntries = 8
	drv, _, _ := identityNIC(t, profile)
	sent := 0
	for {
		if err := drv.Send([]byte{1}); err != nil {
			break
		}
		sent++
		if sent > 16 {
			t.Fatal("no backpressure")
		}
	}
	if sent != 7 { // size-1 capacity
		t.Errorf("accepted %d sends before full, want 7", sent)
	}
	// Drain and send again.
	if _, err := drv.PumpTx(sent); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.ReapTx(); err != nil {
		t.Fatal(err)
	}
	if err := drv.Send([]byte{1}); err != nil {
		t.Errorf("send after drain: %v", err)
	}
}

func TestRxDeliverReapRoundTrip(t *testing.T) {
	drv, _, _ := identityNIC(t, device.ProfileMLX)
	frame := bytes.Repeat([]byte{0x42}, 700)
	for i := 0; i < 4; i++ {
		if err := drv.Deliver(frame); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := drv.ReapRx()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("got %d frames", len(frames))
	}
	for _, f := range frames {
		if !bytes.Equal(f, frame) {
			t.Error("frame corrupted")
		}
	}
	// Ring was refilled.
	if !drv.RxRing().Full() {
		t.Error("Rx ring not refilled after reap")
	}
	// An empty reap is a no-op.
	frames, err = drv.ReapRx()
	if err != nil || frames != nil {
		t.Errorf("empty reap = %v, %v", frames, err)
	}
}

// TestReapRxRejectsOversizedLength corrupts a completed Rx descriptor's
// length to 1 MiB, past the posted 2 KiB buffer but inside simulated
// memory: the reap must fail rather than copy the memory that follows the
// buffer, hand the buffer back to the pool, and leave a driver that a
// Recover brings back to full service.
func TestReapRxRejectsOversizedLength(t *testing.T) {
	drv, _, _ := identityNIC(t, device.ProfileMLX)
	if err := drv.Deliver(bytes.Repeat([]byte{0x42}, 700)); err != nil {
		t.Fatal(err)
	}
	slot := drv.RxRing().Head() - 1
	desc := drv.RxRing().ReadSlot(slot)
	desc.Len = 1 << 20
	drv.RxRing().WriteSlot(slot, desc)
	frames, err := drv.ReapRx()
	if err == nil || frames != nil {
		t.Fatalf("oversized completion reaped: %d frames, err %v", len(frames), err)
	}
	posted := 0
	for _, m := range drv.rxSlots {
		if m.live {
			posted++
		}
	}
	if got := drv.pool.Outstanding(); got != posted {
		t.Errorf("%d buffers outstanding for %d posted slots: the reaped buffer leaked", got, posted)
	}
	if err := drv.Recover(); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte{0x17}, 700)
	if err := drv.Deliver(frame); err != nil {
		t.Fatal(err)
	}
	frames, err = drv.ReapRx()
	if err != nil || len(frames) != 1 || !bytes.Equal(frames[0], frame) {
		t.Fatalf("after Recover: %d frames, err %v", len(frames), err)
	}
}

func TestDriverStats(t *testing.T) {
	drv, _, _ := identityNIC(t, device.ProfileBRCM)
	for i := 0; i < 5; i++ {
		if err := drv.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := drv.PumpTx(5); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.ReapTx(); err != nil {
		t.Fatal(err)
	}
	if err := drv.Deliver([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.ReapRx(); err != nil {
		t.Fatal(err)
	}
	if drv.TxQueued != 5 || drv.TxReaped != 5 || drv.RxReceived != 1 {
		t.Errorf("stats: queued=%d reaped=%d rx=%d", drv.TxQueued, drv.TxReaped, drv.RxReceived)
	}
	if drv.Profile().Name != "brcm" {
		t.Error("Profile accessor")
	}
	if drv.NIC() == nil || drv.TxRing() == nil {
		t.Error("accessors")
	}
}

// descriptorsCarryIOVAs: with a ring.Ring inspection, posted Rx descriptors
// must carry the addresses Map returned (here identity, so PAs).
func TestDescriptorsCarryMappedAddresses(t *testing.T) {
	drv, _, mm := identityNIC(t, device.ProfileBRCM)
	d := drv.RxRing().ReadSlot(0)
	if d.Addr == 0 || d.Addr >= mm.Size() {
		t.Errorf("descriptor address %#x not a valid identity-mapped PA", d.Addr)
	}
	if d.Flags&ring.FlagReady == 0 {
		t.Error("posted descriptor not ready")
	}
}
