package device

import (
	"bytes"
	"math/rand"
	"testing"

	"riommu/internal/dma"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/ring"
)

var bdf = pci.NewBDF(0, 3, 0)

// fixture: identity-translated engine with rings and buffers.
type fixture struct {
	mm     *mem.PhysMem
	eng    *dma.Engine
	rx, tx *ring.Ring
	nic    *NIC
}

func newFixture(t *testing.T, p NICProfile) *fixture {
	t.Helper()
	mm := mustMem(t, 512*mem.PageSize)
	eng := dma.NewEngine(mm, iommu.Identity{})
	rx, err := ring.New(mm, 64)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := ring.New(mm, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Identity addressing: device sees rings at their physical addresses.
	rx.SetDeviceAddr(uint64(rx.BasePA()))
	tx.SetDeviceAddr(uint64(tx.BasePA()))
	nic := NewNIC(p, bdf, eng, rx, tx)
	nic.CaptureTx = true
	return &fixture{mm: mm, eng: eng, rx: rx, tx: tx, nic: nic}
}

func (f *fixture) buffer(t *testing.T, data []byte) (mem.PA, uint32) {
	t.Helper()
	fr, err := f.mm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if err := f.mm.Write(fr.PA(), data); err != nil {
			t.Fatal(err)
		}
	}
	return fr.PA(), uint32(len(data))
}

func TestNICTransmitSingleBuffer(t *testing.T) {
	f := newFixture(t, ProfileBRCM)
	payload := []byte("the quick brown fox")
	pa, n := f.buffer(t, payload)
	if _, err := f.tx.Post(ring.Descriptor{Addr: uint64(pa), Len: n}); err != nil {
		t.Fatal(err)
	}
	sent, err := f.nic.ProcessTx(10)
	if err != nil {
		t.Fatalf("ProcessTx: %v", err)
	}
	if sent != 1 || f.nic.TxPackets != 1 {
		t.Errorf("sent=%d TxPackets=%d", sent, f.nic.TxPackets)
	}
	if !bytes.Equal(f.nic.LastTx, payload) {
		t.Errorf("wire payload = %q", f.nic.LastTx)
	}
	// Completion published back to the descriptor.
	if d := f.tx.ReadSlot(0); d.Flags&ring.FlagDone == 0 {
		t.Error("descriptor not marked done")
	}
}

func TestNICTransmitTwoBuffers(t *testing.T) {
	f := newFixture(t, ProfileMLX)
	header := bytes.Repeat([]byte{0xaa}, ProfileMLX.HeaderBytes)
	body := []byte("packet body")
	paH, nH := f.buffer(t, header)
	paB, nB := f.buffer(t, body)
	if _, err := f.tx.Post(ring.Descriptor{Addr: uint64(paH), Len: nH}); err != nil {
		t.Fatal(err)
	}
	// Only half a packet posted: the device must wait.
	sent, err := f.nic.ProcessTx(10)
	if err != nil || sent != 0 {
		t.Fatalf("half packet transmitted: sent=%d err=%v", sent, err)
	}
	if _, err := f.tx.Post(ring.Descriptor{Addr: uint64(paB), Len: nB}); err != nil {
		t.Fatal(err)
	}
	sent, err = f.nic.ProcessTx(10)
	if err != nil || sent != 1 {
		t.Fatalf("sent=%d err=%v", sent, err)
	}
	want := append(append([]byte{}, header...), body...)
	if !bytes.Equal(f.nic.LastTx, want) {
		t.Errorf("wire = %d bytes, want %d (header+body)", len(f.nic.LastTx), len(want))
	}
	if f.nic.TxBytes != uint64(len(want)) {
		t.Errorf("TxBytes = %d", f.nic.TxBytes)
	}
}

func TestNICReceive(t *testing.T) {
	f := newFixture(t, ProfileBRCM)
	pa, _ := f.buffer(t, nil)
	if _, err := f.rx.Post(ring.Descriptor{Addr: uint64(pa), Len: 2048}); err != nil {
		t.Fatal(err)
	}
	frame := []byte("incoming frame data")
	if err := f.nic.DeliverPacket(frame); err != nil {
		t.Fatalf("DeliverPacket: %v", err)
	}
	got, err := f.mm.Read(pa, uint64(len(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Errorf("buffer = %q", got)
	}
	d := f.rx.ReadSlot(0)
	if d.Flags&ring.FlagDone == 0 || d.Len != uint32(len(frame)) {
		t.Errorf("completion = %+v", d)
	}
	if f.nic.RxPackets != 1 {
		t.Errorf("RxPackets = %d", f.nic.RxPackets)
	}
}

func TestNICReceiveSplit(t *testing.T) {
	f := newFixture(t, ProfileMLX)
	paH, _ := f.buffer(t, nil)
	paB, _ := f.buffer(t, nil)
	if _, err := f.rx.Post(ring.Descriptor{Addr: uint64(paH), Len: 2048}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rx.Post(ring.Descriptor{Addr: uint64(paB), Len: 2048}); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte{7}, 300)
	if err := f.nic.DeliverPacket(frame); err != nil {
		t.Fatal(err)
	}
	// Header bytes landed in the first buffer, the rest in the second.
	h, _ := f.mm.Read(paH, uint64(ProfileMLX.HeaderBytes))
	b, _ := f.mm.Read(paB, uint64(300-ProfileMLX.HeaderBytes))
	if !bytes.Equal(h, frame[:ProfileMLX.HeaderBytes]) || !bytes.Equal(b, frame[ProfileMLX.HeaderBytes:]) {
		t.Error("split landing wrong")
	}
}

func TestNICRxUnderrun(t *testing.T) {
	f := newFixture(t, ProfileBRCM)
	if err := f.nic.DeliverPacket([]byte("x")); err == nil {
		t.Error("delivery into empty rx ring should fail")
	}
}

func TestNICRxBufferTooSmall(t *testing.T) {
	f := newFixture(t, ProfileBRCM)
	pa, _ := f.buffer(t, nil)
	if _, err := f.rx.Post(ring.Descriptor{Addr: uint64(pa), Len: 8}); err != nil {
		t.Fatal(err)
	}
	if err := f.nic.DeliverPacket(bytes.Repeat([]byte{1}, 100)); err == nil {
		t.Error("oversized delivery should fail")
	}
}

func TestNVMeReadWrite(t *testing.T) {
	mm := mustMem(t, 512*mem.PageSize)
	eng := dma.NewEngine(mm, iommu.Identity{})
	ssd := NewNVMe(bdf, eng, 4096, 64)
	q, err := NewNVMeQueuePair(mm, 16)
	if err != nil {
		t.Fatal(err)
	}
	q.SetDeviceAddrs(uint64(q.SQPA()), uint64(q.CQPA()))

	// Host writes a block, then reads it back into a second buffer.
	src, _ := mm.AllocFrame()
	dst, _ := mm.AllocFrame()
	data := bytes.Repeat([]byte("nvme"), 1024)
	if err := mm.Write(src.PA(), data); err != nil {
		t.Fatal(err)
	}
	cidW, err := q.Submit(uint64(src.PA()), 5, 4096, NVMeOpWrite)
	if err != nil {
		t.Fatal(err)
	}
	cidR, err := q.Submit(uint64(dst.PA()), 5, 4096, NVMeOpRead)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ssd.ProcessSQ(q, 10)
	if err != nil {
		t.Fatalf("ProcessSQ: %v", err)
	}
	if n != 2 {
		t.Fatalf("processed %d commands", n)
	}
	// In-order completion: write first, then read.
	c0, ok, err := q.ReapCompletion(0)
	if err != nil || !ok {
		t.Fatalf("completion 0: %v %v", ok, err)
	}
	c1, ok, err := q.ReapCompletion(1)
	if err != nil || !ok {
		t.Fatalf("completion 1: %v %v", ok, err)
	}
	if c0.CID != cidW || c1.CID != cidR {
		t.Errorf("completion order: %d,%d want %d,%d", c0.CID, c1.CID, cidW, cidR)
	}
	if c0.Status != NVMeStatusOK || c1.Status != NVMeStatusOK {
		t.Errorf("statuses %d %d", c0.Status, c1.Status)
	}
	got, _ := mm.Read(dst.PA(), uint64(len(data)))
	if !bytes.Equal(got, data) {
		t.Error("disk round trip corrupted")
	}
	if err := q.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestNVMeBadLBA(t *testing.T) {
	mm := mustMem(t, 128*mem.PageSize)
	eng := dma.NewEngine(mm, iommu.Identity{})
	ssd := NewNVMe(bdf, eng, 4096, 4)
	q, _ := NewNVMeQueuePair(mm, 8)
	q.SetDeviceAddrs(uint64(q.SQPA()), uint64(q.CQPA()))
	buf, _ := mm.AllocFrame()
	if _, err := q.Submit(uint64(buf.PA()), 99, 4096, NVMeOpRead); err != nil {
		t.Fatal(err)
	}
	if _, err := ssd.ProcessSQ(q, 1); err != nil {
		t.Fatal(err)
	}
	c, ok, _ := q.ReapCompletion(0)
	if !ok || c.Status != NVMeStatusLBA {
		t.Errorf("completion = %+v ok=%v, want LBA error", c, ok)
	}
}

func TestNVMeQueueFull(t *testing.T) {
	mm := mustMem(t, 128*mem.PageSize)
	q, err := NewNVMeQueuePair(mm, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := mm.AllocFrame()
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(uint64(buf.PA()), 0, 64, NVMeOpRead); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := q.Submit(uint64(buf.PA()), 0, 64, NVMeOpRead); err == nil {
		t.Error("submit to full queue should fail")
	}
	if _, err := NewNVMeQueuePair(mm, 1); err == nil {
		t.Error("depth-1 queue should be rejected")
	}
}

func TestSATAOutOfOrderCompletion(t *testing.T) {
	mm := mustMem(t, 512*mem.PageSize)
	eng := dma.NewEngine(mm, iommu.Identity{})
	disk := NewSATA(bdf, eng, 512, 1024)

	// Write distinct data to 8 blocks via 8 slots.
	var bufs []mem.PA
	for i := 0; i < 8; i++ {
		f, _ := mm.AllocFrame()
		data := bytes.Repeat([]byte{byte(i + 1)}, 512)
		if err := mm.Write(f.PA(), data); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, f.PA())
		if _, err := disk.Issue(SATACommand{BufIOVA: uint64(f.PA()), Block: uint64(i), Length: 512, Op: SATAWrite}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	order, err := disk.CompleteAll(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("completed %d", len(order))
	}
	// The shuffle must actually produce out-of-order completion for this
	// seed (the property rIOMMU cannot serve).
	inOrder := true
	for i, s := range order {
		if s != i {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("seed produced in-order completion; pick another seed")
	}
	// Data integrity regardless of order: read back block 3.
	rf, _ := mm.AllocFrame()
	if _, err := disk.Issue(SATACommand{BufIOVA: uint64(rf.PA()), Block: 3, Length: 512, Op: SATARead}); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.CompleteAll(rng); err != nil {
		t.Fatal(err)
	}
	got, _ := mm.Read(rf.PA(), 512)
	if !bytes.Equal(got, bytes.Repeat([]byte{4}, 512)) {
		t.Error("block 3 contents wrong")
	}
	if disk.issued != 0 {
		t.Errorf("slots %#x still occupied after CompleteAll", disk.issued)
	}
	_ = bufs
}

func TestSATASlotExhaustion(t *testing.T) {
	mm := mustMem(t, 128*mem.PageSize)
	eng := dma.NewEngine(mm, iommu.Identity{})
	disk := NewSATA(bdf, eng, 512, 1024)
	f, _ := mm.AllocFrame()
	for i := 0; i < SATASlots; i++ {
		if _, err := disk.Issue(SATACommand{BufIOVA: uint64(f.PA()), Block: 0, Length: 512, Op: SATARead}); err != nil {
			t.Fatalf("issue %d: %v", i, err)
		}
	}
	if _, err := disk.Issue(SATACommand{}); err == nil {
		t.Error("33rd issue should fail")
	}
}
