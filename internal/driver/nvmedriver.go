package driver

import (
	"fmt"

	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// NVMeDriver is the OS block driver for the NVMe model: it owns a queue
// pair (mapped persistently for the device, like NIC descriptor rings),
// maps one single-use IOVA per command's data buffer, and unmaps completed
// commands in completion-burst order — the same intra-OS protection
// discipline as the NIC path, which is exactly why §4 argues rIOMMU covers
// NVMe: commands are consumed strictly in queue order.
type NVMeDriver struct {
	mm   *mem.PhysMem
	prot Protection
	ssd  *device.NVMe
	q    *device.NVMeQueuePair
	pool *BufferPool

	staticIOVAs []mapped
	pending     map[uint32]nvmeCmd // cid -> in-flight state
	order       []uint32           // submission order (== completion order)
	seen        uint32             // completions consumed

	// Statistics.
	Submitted, Completed uint64
}

type nvmeCmd struct {
	m      mapped
	isRead bool
	length uint32
}

// NVMeCompletion is one finished command returned by Poll.
type NVMeCompletion struct {
	CID    uint32
	Status uint32
	// Data holds the payload for completed reads.
	Data []byte
}

// NewNVMeDriver allocates and maps a queue pair of the given depth and
// binds it to an NVMe device model with blockSize × blocks of storage.
func NewNVMeDriver(mm *mem.PhysMem, prot Protection, eng *dma.Engine, bdf pci.BDF, blockSize uint32, blocks uint64, depth uint32) (*NVMeDriver, error) {
	q, err := device.NewNVMeQueuePair(mm, depth)
	if err != nil {
		return nil, err
	}
	d := &NVMeDriver{
		mm:      mm,
		prot:    prot,
		ssd:     device.NewNVMe(bdf, eng, blockSize, blocks),
		q:       q,
		pool:    NewBufferPool(mm, mem.PageSize),
		pending: make(map[uint32]nvmeCmd),
	}
	if err := d.mapQueues(); err != nil {
		return nil, err
	}
	return d, nil
}

// mapQueues persistently maps the SQ and CQ under the driver's protection
// unit (static ring table, as for NICs).
func (d *NVMeDriver) mapQueues() error {
	q := d.q
	sqIOVA, err := d.prot.Map(RingStatic, q.SQPA(), q.SQBytes(), pci.DirBidi)
	if err != nil {
		return fmt.Errorf("driver: mapping NVMe SQ: %w", err)
	}
	cqIOVA, err := d.prot.Map(RingStatic, q.CQPA(), q.CQBytes(), pci.DirBidi)
	if err != nil {
		return fmt.Errorf("driver: mapping NVMe CQ: %w", err)
	}
	q.SetDeviceAddrs(sqIOVA, cqIOVA)
	d.staticIOVAs = append(d.staticIOVAs,
		mapped{pa: q.SQPA(), iova: sqIOVA, size: q.SQBytes()},
		mapped{pa: q.CQPA(), iova: cqIOVA, size: q.CQBytes()})
	return nil
}

// Device exposes the SSD model (tests, fault injection).
func (d *NVMeDriver) Device() *device.NVMe { return d.ssd }

// Live returns the mappings the driver owns: one per command buffer it has
// handed out plus the two queue mappings.
func (d *NVMeDriver) Live() int { return d.pool.Outstanding() + len(d.staticIOVAs) }

// Write submits a write of data (at most one page) at the given block.
// The buffer is mapped just before submission (Figure 4's discipline).
func (d *NVMeDriver) Write(block uint64, data []byte) (uint32, error) {
	if len(data) == 0 || len(data) > mem.PageSize {
		return 0, fmt.Errorf("driver: NVMe write of %d bytes (want 1..%d)", len(data), mem.PageSize)
	}
	pa, err := d.pool.Get()
	if err != nil {
		return 0, err
	}
	if err := d.mm.Write(pa, data); err != nil {
		return 0, err
	}
	return d.submit(pa, block, uint32(len(data)), device.NVMeOpWrite, false)
}

// Read submits a read of length bytes (at most one page) from block.
func (d *NVMeDriver) Read(block uint64, length uint32) (uint32, error) {
	if length == 0 || length > mem.PageSize {
		return 0, fmt.Errorf("driver: NVMe read of %d bytes", length)
	}
	pa, err := d.pool.Get()
	if err != nil {
		return 0, err
	}
	return d.submit(pa, block, length, device.NVMeOpRead, true)
}

func (d *NVMeDriver) submit(pa mem.PA, block uint64, length uint32, op uint32, isRead bool) (uint32, error) {
	dir := pci.DirToDevice
	if isRead {
		dir = pci.DirFromDevice
	}
	iova, err := d.prot.Map(RingRx, pa, length, dir)
	if err != nil {
		d.pool.Put(pa)
		return 0, err
	}
	cid, err := d.q.Submit(iova, block, length, op)
	if err != nil {
		uerr := d.prot.Unmap(RingRx, iova, length, true)
		d.pool.Put(pa)
		if uerr != nil {
			return 0, uerr
		}
		return 0, err
	}
	d.pending[cid] = nvmeCmd{m: mapped{pa: pa, iova: iova, size: length}, isRead: isRead, length: length}
	d.order = append(d.order, cid)
	d.Submitted++
	return cid, nil
}

// Poll lets the device consume up to max commands, then reaps every new
// completion: buffers are unmapped in completion order with the
// end-of-burst marker on the last one, and read payloads are read before
// their buffers return to the pool. It returns the number of completions
// reaped. The reads keep nothing (see readPayload); PollData returns the
// completions.
func (d *NVMeDriver) Poll(max int) (int, error) {
	return d.poll(max, nil)
}

// PollData is Poll for callers that read the completions: it returns each
// one's command id and status, and a copy of every completed read's
// payload. On an error it returns the completions reaped before it.
func (d *NVMeDriver) PollData(max int) ([]NVMeCompletion, error) {
	var done []NVMeCompletion
	_, err := d.poll(max, &done)
	return done, err
}

// poll is Poll, appending each completion to *out when out is non-nil.
func (d *NVMeDriver) poll(max int, out *[]NVMeCompletion) (int, error) {
	if _, err := d.ssd.ProcessSQ(d.q, max); err != nil {
		return 0, err
	}
	n := 0
	for {
		c, ok, err := d.q.ReapCompletion(d.seen)
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		d.seen++
		cmd, known := d.pending[c.CID]
		if !known {
			return n, fmt.Errorf("driver: completion for unknown cid %d", c.CID)
		}
		// NVMe queues complete strictly in submission order (§4) — the
		// property that makes rIOMMU's sequential flat tables applicable.
		// A violation means the device model is broken.
		if len(d.order) <= n || d.order[n] != c.CID {
			return n, fmt.Errorf("driver: out-of-order NVMe completion: cid %d", c.CID)
		}
		var data []byte
		if cmd.isRead && c.Status == device.NVMeStatusOK {
			if data, err = readPayload(d.mm, cmd.m.pa, cmd.length, out != nil); err != nil {
				return n, err
			}
		}
		if out != nil {
			*out = append(*out, NVMeCompletion{CID: c.CID, Status: c.Status, Data: data})
		}
		n++
	}
	// Unmap the burst in completion order, which is submission order;
	// burst-end on the last.
	for i, cid := range d.order[:n] {
		cmd := d.pending[cid]
		if err := d.prot.Unmap(RingRx, cmd.m.iova, cmd.m.size, i == n-1); err != nil {
			return n, fmt.Errorf("driver: NVMe unmap cid %d: %w", cid, err)
		}
		d.pool.Put(cmd.m.pa)
		delete(d.pending, cid)
		d.Completed++
	}
	// Drop the reaped commands in place, so a steady stream of commands
	// reuses one backing array.
	d.order = d.order[:copy(d.order, d.order[n:])]
	return n, nil
}

// readPayload reads a completed command's n-byte payload at pa: a copy when
// keep is set, otherwise mem.(*PhysMem).ReadDiscard, which fails and draws
// faults as the copy would but keeps nothing.
func readPayload(mm *mem.PhysMem, pa mem.PA, n uint32, keep bool) ([]byte, error) {
	if !keep {
		return nil, mm.ReadDiscard(pa, uint64(n))
	}
	return mm.Read(pa, uint64(n))
}

// Recover reinitializes the device path after a fault, as the OS does on an
// I/O page fault (§4): every in-flight command's mapping is torn down (in
// submission order, deterministically — the pending map is never ranged),
// buffers return to the pool, the queue pair and controller are reset.
// In-flight commands are lost; the caller resubmits.
func (d *NVMeDriver) Recover() error { return d.reset(nil) }

// Reattach migrates the driver to a different protection unit (graceful
// degradation). It is Recover under the new unit: the persistent queue
// mappings are torn down best-effort under the old one and remapped under
// prot before the controller is reset.
func (d *NVMeDriver) Reattach(prot Protection) error { return d.reset(prot) }

// reset is Recover, and Reattach when prot is non-nil.
func (d *NVMeDriver) reset(prot Protection) error {
	for i, cid := range d.order {
		cmd, ok := d.pending[cid]
		if !ok {
			continue
		}
		_ = d.prot.Unmap(RingRx, cmd.m.iova, cmd.m.size, i == len(d.order)-1)
		d.pool.Put(cmd.m.pa)
	}
	d.pending = make(map[uint32]nvmeCmd)
	d.order = nil
	d.seen = 0
	if prot != nil {
		d.staticIOVAs = unmapStatic(d.prot, d.staticIOVAs)
		d.prot = prot
		if err := d.mapQueues(); err != nil {
			return err
		}
	}
	d.ssd.ResetDevice()
	return d.q.Reset()
}

// Progress returns the device's forward-progress counter for the watchdog.
func (d *NVMeDriver) Progress() uint64 { return d.ssd.Commands }

// Teardown unmaps everything, including the persistent queue mappings.
func (d *NVMeDriver) Teardown() error {
	if len(d.pending) > 0 {
		if _, err := d.Poll(int(d.q.Entries())); err != nil {
			return err
		}
	}
	for i, m := range d.staticIOVAs {
		if err := d.prot.Unmap(RingStatic, m.iova, m.size, i == len(d.staticIOVAs)-1); err != nil {
			return err
		}
	}
	if err := d.q.Free(); err != nil {
		return err
	}
	return d.pool.Destroy()
}
