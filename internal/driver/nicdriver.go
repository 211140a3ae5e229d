package driver

import (
	"bytes"
	"fmt"

	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/ring"
)

// Ring IDs used with the rIOMMU protection driver. Each device ring is
// backed by two flat tables (§4): one static table translating the ring
// pages themselves (mapped at initialization, unmapped at teardown) and one
// dynamic table for the in-flight target buffers.
const (
	RingStatic = 0 // ring-page translations for every queue's rings
	RingRx     = 1 // queue 0's Rx target buffers
	RingTx     = 2 // queue 0's Tx target buffers
)

// RIOMMURingSizes returns the flat-table sizes a NIC with the given profile
// needs: a small static table plus one dynamic table per direction sized to
// bound the live IOVAs (L <= ring entries × buffers/packet, §4).
func RIOMMURingSizes(p device.NICProfile) []uint32 {
	return RIOMMURingSizesQ(p, 1)
}

// QueueIRQ is the driver's view of one queue's interrupt state: firing
// delivers any pending completion interrupt through the remapping hardware
// when the handler services the queue, and Drop discards pending state on a
// queue reset so a recovered queue never replays pre-reset completions.
// A nil QueueIRQ means interrupts are not modeled.
type QueueIRQ interface {
	FireRx()
	FireTx()
	Drop() int
}

// mapped tracks one live target-buffer mapping (or an inline descriptor,
// which has no mapping at all).
type mapped struct {
	pa     mem.PA
	iova   uint64
	size   uint32
	inline bool
	live   bool
}

// unmapStatic tears down persistent ring or queue mappings best-effort,
// newest first with the burst-end marker on the oldest, and returns the
// emptied slice for the remap.
func unmapStatic(prot Protection, static []mapped) []mapped {
	for i := len(static) - 1; i >= 0; i-- {
		_ = prot.Unmap(RingStatic, static[i].iova, static[i].size, i == 0)
	}
	return static[:0]
}

// NICDriver is the OS network driver: it owns the Rx/Tx descriptor rings,
// keeps the Rx ring replenished with mapped buffers, maps Tx buffers as
// packets are sent, and unmaps buffers in completion-burst order with the
// end-of-burst marker on the final unmap of each burst.
type NICDriver struct {
	mm   *mem.PhysMem
	prot Protection
	pool *BufferPool
	nic  *device.NIC
	rx   *ring.Ring
	tx   *ring.Ring

	profile device.NICProfile
	ringRx  int // rIOMMU flat table for Rx buffers
	ringTx  int // rIOMMU flat table for Tx buffers

	rxSlots []mapped // per Rx slot
	txSlots []mapped // per Tx slot
	rxReap  uint32   // next Rx slot to reap
	txReap  uint32   // next Tx slot to reap

	staticIOVAs []mapped // persistent ring-page mappings

	reapScratch []uint32 // reusable completed-slot list for Reap{Rx,Tx}

	txHeader []byte    // two-buffer profiles' synthesized protocol header
	txPieces [2][]byte // splitTx's reusable result

	irq QueueIRQ // nil: interrupts not modeled

	// Statistics.
	TxQueued   uint64
	TxReaped   uint64
	RxReceived uint64
}

// NewNICDriver allocates the descriptor rings, maps them persistently for
// the device, wires up the NIC model, and fills the Rx ring with mapped
// buffers. eng must already translate through the protection mode's
// matching hardware.
func NewNICDriver(mm *mem.PhysMem, prot Protection, eng *dma.Engine, profile device.NICProfile, bdf pci.BDF) (*NICDriver, *device.NIC, error) {
	return newNICDriverQueue(mm, prot, eng, profile, bdf, 0)
}

// newNICDriverQueue builds the driver for queue q of a (possibly
// multi-queue) NIC, using the queue's own rIOMMU flat tables.
func newNICDriverQueue(mm *mem.PhysMem, prot Protection, eng *dma.Engine, profile device.NICProfile, bdf pci.BDF, q int) (*NICDriver, *device.NIC, error) {
	rx, err := ring.New(mm, profile.RxEntries)
	if err != nil {
		return nil, nil, err
	}
	tx, err := ring.New(mm, profile.TxEntries)
	if err != nil {
		return nil, nil, err
	}
	d := &NICDriver{
		mm:      mm,
		prot:    prot,
		pool:    NewBufferPool(mm, profile.BufferBytes),
		rx:      rx,
		tx:      tx,
		profile: profile,
		ringRx:  queueRingRx(q),
		ringTx:  queueRingTx(q),
		rxSlots: make([]mapped, profile.RxEntries),
		txSlots: make([]mapped, profile.TxEntries),
	}
	if profile.BuffersPerPacket >= 2 {
		d.txHeader = bytes.Repeat([]byte{0x5a}, profile.HeaderBytes) // synthesized protocol header bytes
	}

	if err := d.mapRings(); err != nil {
		return nil, nil, err
	}
	d.nic = device.NewNIC(profile, bdf, eng, rx, tx)
	if err := d.fillRx(); err != nil {
		return nil, nil, err
	}
	return d, d.nic, nil
}

// mapRings persistently maps the descriptor rings under the driver's
// protection unit so the device can fetch descriptors (the "first rRING"
// of §4; a single fine-grained mapping per ring).
func (d *NICDriver) mapRings() error {
	for _, r := range []*ring.Ring{d.rx, d.tx} {
		iova, err := d.prot.Map(RingStatic, r.BasePA(), r.Bytes(), pci.DirBidi)
		if err != nil {
			return fmt.Errorf("driver: mapping ring memory: %w", err)
		}
		r.SetDeviceAddr(iova)
		d.staticIOVAs = append(d.staticIOVAs, mapped{pa: r.BasePA(), iova: iova, size: r.Bytes()})
	}
	return nil
}

// NIC returns the attached device model.
func (d *NICDriver) NIC() *device.NIC { return d.nic }

// RxRing and TxRing expose the descriptor rings (tests, experiments).
func (d *NICDriver) RxRing() *ring.Ring { return d.rx }

// TxRing returns the transmit descriptor ring.
func (d *NICDriver) TxRing() *ring.Ring { return d.tx }

// Profile returns the NIC profile.
func (d *NICDriver) Profile() device.NICProfile { return d.profile }

// Live returns the mappings the driver owns: one per pool buffer it has
// handed out (posted Rx and in-flight Tx buffers) plus its static ring
// mappings. Inline Tx descriptors map nothing.
func (d *NICDriver) Live() int { return d.pool.Outstanding() + len(d.staticIOVAs) }

// SetIRQ wires the queue's interrupt source into both halves of the path:
// the driver fires/drops it, and — when the source is also a device-side
// IRQ line — the NIC model raises it on completions.
func (d *NICDriver) SetIRQ(irq QueueIRQ) {
	d.irq = irq
	if line, ok := irq.(device.IRQLine); ok {
		d.nic.IRQ = line
	} else if irq == nil {
		d.nic.IRQ = nil
	}
}

// IRQ returns the wired interrupt source (nil when not modeled).
func (d *NICDriver) IRQ() QueueIRQ { return d.irq }

// fillRx tops the Rx ring up to capacity with freshly mapped buffers, one
// at a time: take a buffer from the pool, map it and post it. A buffer whose
// map or post fails is unwound (see mapPost) and the refill stops with that
// error; the buffers posted before it stay posted.
func (d *NICDriver) fillRx() error {
	size := d.pool.BufSize()
	for !d.rx.Full() {
		pa, err := d.pool.Get()
		if err != nil {
			return err
		}
		if err := d.mapPost(d.rx, d.rxSlots, d.ringRx, pa, size, pci.DirFromDevice); err != nil {
			return err
		}
	}
	return nil
}

// mapPost maps the pool buffer at pa through flat table rid, posts it to r
// and records the mapping in slots, r's per-slot table. On failure it
// unwinds: a mapping that could not be posted is unmapped with the
// burst-end marker, so no stale state survives, and the buffer goes back to
// the pool.
func (d *NICDriver) mapPost(r *ring.Ring, slots []mapped, rid int, pa mem.PA, size uint32, dir pci.Dir) error {
	iova, err := d.prot.Map(rid, pa, size, dir)
	if err != nil {
		d.pool.Put(pa)
		return err
	}
	slot, err := r.Post(ring.Descriptor{Addr: iova, Len: size})
	if err != nil {
		uerr := d.prot.Unmap(rid, iova, size, true)
		d.pool.Put(pa)
		if uerr != nil {
			return uerr
		}
		return err
	}
	slots[slot] = mapped{pa: pa, iova: iova, size: size, live: true}
	return nil
}

// Send maps the packet's buffer(s) and posts the Tx descriptor(s). The
// device transmits when PumpTx runs (the doorbell/DMA stage), and buffers
// are unmapped when ReapTx processes the completion burst.
//
// For two-buffer profiles (mlx) the packet is a synthesized protocol header
// in one buffer plus the payload in a second — two map operations per
// packet, as the paper measures.
func (d *NICDriver) Send(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("driver: empty payload")
	}
	pieces := d.splitTx(payload)
	if int(d.tx.Size()-1-d.tx.Pending()) < len(pieces) {
		return fmt.Errorf("driver: tx ring full")
	}
	for _, piece := range pieces {
		pa, err := d.pool.Get()
		if err != nil {
			return err
		}
		if len(piece) > 0 {
			if err := d.mm.Write(pa, piece); err != nil {
				return err
			}
		}
		size := uint32(len(piece))
		if size == 0 {
			size = 1 // descriptor must describe at least one byte
		}
		if err := d.mapPost(d.tx, d.txSlots, d.ringTx, pa, size, pci.DirToDevice); err != nil {
			return err
		}
	}
	d.TxQueued++
	return nil
}

// SendInline posts a tiny payload (at most 8 bytes) carried inside the
// descriptor itself — the inline-send path real NICs provide (ConnectX
// BlueFlame doorbells, copybreak transmit). No buffer is allocated and no
// IOVA is mapped, which is why latency-sensitive small-message traffic pays
// only receive-side protection costs (§5.2's RR results).
func (d *NICDriver) SendInline(payload []byte) error {
	if len(payload) == 0 || len(payload) > 8 {
		return fmt.Errorf("driver: inline payload must be 1..8 bytes, got %d", len(payload))
	}
	var packed uint64
	for i, b := range payload {
		packed |= uint64(b) << (8 * i)
	}
	slot, err := d.tx.Post(ring.Descriptor{
		Addr:  packed,
		Len:   uint32(len(payload)),
		Flags: ring.FlagInline,
	})
	if err != nil {
		return err
	}
	d.txSlots[slot] = mapped{inline: true, live: true}
	d.TxQueued++
	return nil
}

// splitTx produces the per-buffer pieces for a payload: header + payload
// for two-buffer profiles, a single frame otherwise. The result reuses one
// slice, valid until the next call.
func (d *NICDriver) splitTx(payload []byte) [][]byte {
	if d.profile.BuffersPerPacket < 2 {
		d.txPieces[0] = payload
		return d.txPieces[:1]
	}
	d.txPieces[0], d.txPieces[1] = d.txHeader, payload
	return d.txPieces[:2]
}

// PumpTx lets the device transmit up to maxPackets queued packets.
func (d *NICDriver) PumpTx(maxPackets int) (int, error) {
	return d.nic.ProcessTx(maxPackets)
}

// ReapTx processes the Tx completion burst: it walks completed descriptors
// in ring order, unmapping each buffer and marking the burst end on the
// last one, then returns buffers to the pool. Returns packets reaped.
func (d *NICDriver) ReapTx() (int, error) {
	if d.irq != nil {
		d.irq.FireTx()
	}
	done := d.reapScratch[:0]
	for d.txReap != d.tx.Head() {
		if d.tx.ReadSlot(d.txReap).Flags&ring.FlagDone == 0 {
			break
		}
		done = append(done, d.txReap)
		d.txReap = (d.txReap + 1) % d.tx.Size()
	}
	d.reapScratch = done
	// The end-of-burst marker goes on the last *mapped* descriptor of the
	// burst; inline descriptors have nothing to unmap.
	lastMapped := -1
	for i, slot := range done {
		if !d.txSlots[slot].inline {
			lastMapped = i
		}
	}
	pkts := 0
	buffered := 0
	for i, slot := range done {
		m := d.txSlots[slot]
		if m.inline {
			pkts++
		} else {
			if err := d.prot.Unmap(d.ringTx, m.iova, m.size, i == lastMapped); err != nil {
				return 0, fmt.Errorf("driver: tx unmap slot %d: %w", slot, err)
			}
			buffered++
			// Retire the slot with the unmap so a failure below cannot
			// leave a live-looking slot whose mapping is already gone.
			d.pool.Put(m.pa)
		}
		d.txSlots[slot] = mapped{}
		if _, err := d.tx.Reap(slot); err != nil {
			return 0, err
		}
	}
	pkts += buffered / d.profile.BuffersPerPacket
	d.TxReaped += uint64(pkts)
	return pkts, nil
}

// Deliver simulates a packet arriving on the wire: the device DMAs it into
// the posted Rx buffers. Call ReapRx to run the driver's interrupt handler.
func (d *NICDriver) Deliver(frame []byte) error {
	return d.nic.DeliverPacket(frame)
}

// ReapRx runs the Rx completion burst: for every completed descriptor it
// unmaps the buffer (burst-end marker on the last), reads the data,
// returns the buffer to the pool, and reposts a freshly mapped buffer. It
// returns the number of packets received. The read keeps nothing
// (mem.(*PhysMem).ReadDiscard) but fails and draws faults as a copy would;
// ReapRxFrames returns the frames.
func (d *NICDriver) ReapRx() (int, error) {
	return d.reapRx(nil)
}

// ReapRxFrames is ReapRx for callers that read what arrived: it returns a
// copy of every received frame.
func (d *NICDriver) ReapRxFrames() ([][]byte, error) {
	var frames [][]byte
	if _, err := d.reapRx(&frames); err != nil {
		return nil, err
	}
	return frames, nil
}

// reapRx is ReapRx, appending each received frame to *frames when frames
// is non-nil.
func (d *NICDriver) reapRx(frames *[][]byte) (int, error) {
	if d.irq != nil {
		d.irq.FireRx()
	}
	done := d.reapScratch[:0]
	for d.rxReap != d.rx.Head() {
		if d.rx.ReadSlot(d.rxReap).Flags&ring.FlagDone == 0 {
			break
		}
		done = append(done, d.rxReap)
		d.rxReap = (d.rxReap + 1) % d.rx.Size()
	}
	d.reapScratch = done
	if len(done) == 0 {
		return 0, nil
	}
	pkts := 0
	var frame []byte
	for i, slot := range done {
		desc, err := d.rx.Reap(slot)
		if err != nil {
			return 0, err
		}
		m := d.rxSlots[slot]
		// The unmap must precede touching the buffer (per the DMA API the
		// driver must not read it earlier; see §2.1 footnote). The slot
		// state is retired with it, so a failure on the read below cannot
		// leave a live-looking slot whose mapping is already gone (Recover
		// would double-unmap).
		if err := d.prot.Unmap(d.ringRx, m.iova, m.size, i == len(done)-1); err != nil {
			return 0, fmt.Errorf("driver: rx unmap slot %d: %w", slot, err)
		}
		d.rxSlots[slot] = mapped{}
		if desc.Len > m.size {
			// The device can only have written the buffer posted in this
			// slot; a longer length is a corrupted completion, and copying
			// it would read past the buffer into whatever memory follows.
			d.pool.Put(m.pa)
			return 0, fmt.Errorf("driver: rx slot %d: completion length %d exceeds its %d-byte buffer", slot, desc.Len, m.size)
		}
		if desc.Len > 0 {
			if frames == nil {
				err = d.mm.ReadDiscard(m.pa, uint64(desc.Len))
			} else {
				// Copy straight out of simulated memory into the frame.
				off := len(frame)
				frame = append(frame, make([]byte, desc.Len)...)
				err = d.mm.ReadInto(m.pa, frame[off:])
			}
			if err != nil {
				d.pool.Put(m.pa)
				return 0, err
			}
		}
		d.pool.Put(m.pa)
		if (i+1)%d.profile.BuffersPerPacket == 0 {
			pkts++
			if frames != nil {
				*frames = append(*frames, frame)
				frame = nil
			}
		}
	}
	d.RxReceived += uint64(pkts)
	if err := d.fillRx(); err != nil {
		return 0, err
	}
	return pkts, nil
}

// Recover reinitializes the device path after an I/O page fault, as OSes do
// (§4): every live target-buffer mapping is torn down, the descriptor rings
// are reset, and the Rx ring is refilled with freshly mapped buffers.
// Outstanding packets are lost — exactly the semantics of a device reset.
// Unmaps are best-effort: a reset must terminate even when the fault left
// the mapping state inconsistent.
func (d *NICDriver) Recover() error { return d.reset(nil) }

// Reattach migrates the driver to a different protection unit (graceful
// degradation: e.g. from rIOMMU to the baseline strict IOMMU after repeated
// faults). It is Recover under the new unit: the ring mappings are torn
// down best-effort under the old one — it may be the very thing that is
// misbehaving — and remapped under prot before the Rx ring is refilled.
func (d *NICDriver) Reattach(prot Protection) error { return d.reset(prot) }

// reset is Recover, and Reattach when prot is non-nil.
func (d *NICDriver) reset(prot Protection) error {
	d.nic.ResetDevice()
	// A queue reset forfeits its in-flight completions: any latched
	// interrupt refers to descriptors the reset is about to destroy, so
	// delivering it later would replay pre-reset state.
	if d.irq != nil {
		d.irq.Drop()
	}
	d.releaseSlots()
	if prot != nil {
		d.staticIOVAs = unmapStatic(d.prot, d.staticIOVAs)
		d.prot = prot
		if err := d.mapRings(); err != nil {
			return err
		}
	}
	if err := d.rx.Reset(); err != nil {
		return err
	}
	if err := d.tx.Reset(); err != nil {
		return err
	}
	d.rxReap, d.txReap = 0, 0
	return d.fillRx()
}

// releaseSlots unmaps every live Tx and Rx target buffer best-effort,
// returns its frame to the pool and clears the slot, as a device reset
// does.
func (d *NICDriver) releaseSlots() {
	for slot := range d.txSlots {
		m := d.txSlots[slot]
		if m.live && !m.inline {
			_ = d.prot.Unmap(d.ringTx, m.iova, m.size, true)
			d.pool.Put(m.pa)
		}
		d.txSlots[slot] = mapped{}
	}
	for slot := range d.rxSlots {
		m := d.rxSlots[slot]
		if m.live {
			_ = d.prot.Unmap(d.ringRx, m.iova, m.size, true)
			d.pool.Put(m.pa)
		}
		d.rxSlots[slot] = mapped{}
	}
}

// Progress returns the device's monotonic forward-progress counter for the
// recovery watchdog: packets moved in either direction.
func (d *NICDriver) Progress() uint64 { return d.nic.TxPackets + d.nic.RxPackets }

// Teardown drains completions, unmaps every live mapping (including the
// persistent ring mappings), and releases rings and buffers: the unmap path
// of a driver unload. A world that ends once its result is taken does not
// run it; it compares Live with its protection layer's count
// (sim.(*System).CheckLive) and closes, since no output reads what a
// teardown would simulate. Tests of the unmap path and the internal/check
// harness still tear down.
func (d *NICDriver) Teardown() error {
	if _, err := d.PumpTx(int(d.tx.Pending())); err != nil {
		return err
	}
	if d.irq != nil {
		defer d.irq.Drop()
	}
	if _, err := d.ReapTx(); err != nil {
		return err
	}
	// Unmap the posted Rx buffers still owned by the device.
	var lastErr error
	for slot := d.rxReap; slot != d.rx.Tail(); slot = (slot + 1) % d.rx.Size() {
		m := d.rxSlots[slot]
		if err := d.prot.Unmap(d.ringRx, m.iova, m.size, slot == (d.rx.Tail()+d.rx.Size()-1)%d.rx.Size()); err != nil {
			lastErr = err
			continue
		}
		d.pool.Put(m.pa)
	}
	for i, m := range d.staticIOVAs {
		if err := d.prot.Unmap(RingStatic, m.iova, m.size, i == len(d.staticIOVAs)-1); err != nil {
			lastErr = err
		}
	}
	if err := d.rx.Free(); err != nil {
		return err
	}
	if err := d.tx.Free(); err != nil {
		return err
	}
	if err := d.pool.Destroy(); err != nil {
		return err
	}
	return lastErr
}
