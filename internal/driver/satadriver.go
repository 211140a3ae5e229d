package driver

import (
	"fmt"
	"math/rand"

	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// SlotMapper is the optional protection capability for devices whose queues
// complete out of order: the mapping is bound to an explicit flat-table
// entry (the §4 AHCI extension, core.Driver.MapAt). Protections without it
// (the baseline IOMMU, which has no ordering assumptions) fall back to
// ordinary Map.
type SlotMapper interface {
	MapAt(ring int, rentry uint32, pa mem.PA, size uint32, dir pci.Dir) (uint64, error)
}

// SATADriver is the OS block driver for the AHCI model: one mapping per
// command slot, unmapped in whatever order the drive completes. Under
// rIOMMU protection it uses slot-indexed MapAt; under the baseline it uses
// the ordinary allocator.
type SATADriver struct {
	mm   *mem.PhysMem
	prot Protection
	disk *device.SATA
	pool *BufferPool

	slots [device.SATASlots]*sataCmd

	// Statistics.
	Submitted, Completed uint64
}

type sataCmd struct {
	m      mapped
	isRead bool
	length uint32
	block  uint64
}

// NewSATADriver binds a driver to a fresh drive model.
func NewSATADriver(mm *mem.PhysMem, prot Protection, eng *dma.Engine, bdf pci.BDF, blockSize uint32, blocks uint64) *SATADriver {
	return &SATADriver{
		mm:   mm,
		prot: prot,
		disk: device.NewSATA(bdf, eng, blockSize, blocks),
		pool: NewBufferPool(mm, mem.PageSize),
	}
}

// SubmitWrite issues a write command, mapping its buffer to the flat-table
// entry matching the AHCI slot when the protection supports it.
func (d *SATADriver) SubmitWrite(block uint64, data []byte) (int, error) {
	if len(data) == 0 || len(data) > mem.PageSize {
		return -1, fmt.Errorf("driver: SATA write of %d bytes", len(data))
	}
	pa, err := d.pool.Get()
	if err != nil {
		return -1, err
	}
	if err := d.mm.Write(pa, data); err != nil {
		return -1, err
	}
	return d.submit(pa, block, uint32(len(data)), device.SATAWrite, false)
}

// SubmitRead issues a read command.
func (d *SATADriver) SubmitRead(block uint64, length uint32) (int, error) {
	if length == 0 || length > mem.PageSize {
		return -1, fmt.Errorf("driver: SATA read of %d bytes", length)
	}
	pa, err := d.pool.Get()
	if err != nil {
		return -1, err
	}
	return d.submit(pa, block, length, device.SATARead, true)
}

func (d *SATADriver) submit(pa mem.PA, block uint64, length uint32, op int, isRead bool) (int, error) {
	// Find the slot first: the slot number doubles as the flat-table index.
	slot := -1
	for i := 0; i < device.SATASlots; i++ {
		if d.slots[i] == nil {
			slot = i
			break
		}
	}
	if slot == -1 {
		d.pool.Put(pa)
		return -1, fmt.Errorf("driver: all %d SATA slots busy", device.SATASlots)
	}
	dir := pci.DirToDevice
	if isRead {
		dir = pci.DirFromDevice
	}
	var iova uint64
	var err error
	if sm, ok := d.prot.(SlotMapper); ok {
		iova, err = sm.MapAt(RingRx, uint32(slot), pa, length, dir)
	} else {
		iova, err = d.prot.Map(RingRx, pa, length, dir)
	}
	if err != nil {
		d.pool.Put(pa)
		return -1, err
	}
	got, err := d.disk.Issue(device.SATACommand{BufIOVA: iova, Block: block, Length: length, Op: op})
	if err != nil {
		uerr := d.prot.Unmap(RingRx, iova, length, true)
		d.pool.Put(pa)
		if uerr != nil {
			return -1, uerr
		}
		return -1, err
	}
	if got != slot {
		return -1, fmt.Errorf("driver: slot mismatch: reserved %d, drive used %d", slot, got)
	}
	d.slots[slot] = &sataCmd{m: mapped{pa: pa, iova: iova, size: length}, isRead: isRead, length: length, block: block}
	d.Submitted++
	return slot, nil
}

// SATAResult is one completed command.
type SATAResult struct {
	Slot int
	Data []byte // read payload
}

// CompleteAll lets the drive finish every issued command in arbitrary
// order, then unmaps each buffer in that completion order (burst-end on the
// last). It returns the number of commands completed. Read payloads are
// read before their buffers return to the pool, keeping nothing (see
// readPayload); CompleteAllData returns the results.
func (d *SATADriver) CompleteAll(rng *rand.Rand) (int, error) {
	return d.completeAll(rng, nil)
}

// CompleteAllData is CompleteAll for callers that read the results: it
// returns them in completion order, with a copy of every read's payload.
// On an error it returns the results completed before it.
func (d *SATADriver) CompleteAllData(rng *rand.Rand) ([]SATAResult, error) {
	var out []SATAResult
	_, err := d.completeAll(rng, &out)
	return out, err
}

// completeAll is CompleteAll, appending each result to *out when out is
// non-nil.
func (d *SATADriver) completeAll(rng *rand.Rand, out *[]SATAResult) (int, error) {
	order, err := d.disk.CompleteAll(rng)
	if err != nil {
		return 0, err
	}
	for i, slot := range order {
		cmd := d.slots[slot]
		if cmd == nil {
			return i, fmt.Errorf("driver: completion for empty slot %d", slot)
		}
		var data []byte
		if cmd.isRead {
			if data, err = readPayload(d.mm, cmd.m.pa, cmd.length, out != nil); err != nil {
				return i, err
			}
		}
		if err := d.prot.Unmap(RingRx, cmd.m.iova, cmd.m.size, i == len(order)-1); err != nil {
			return i, fmt.Errorf("driver: SATA unmap slot %d: %w", slot, err)
		}
		d.pool.Put(cmd.m.pa)
		d.slots[slot] = nil
		d.Completed++
		if out != nil {
			*out = append(*out, SATAResult{Slot: slot, Data: data})
		}
	}
	return len(order), nil
}

// Recover reinitializes the drive after a fault: every issued command's
// mapping is torn down (ascending slot order, deterministically), buffers
// return to the pool, and the port is reset. In-flight commands are lost.
func (d *SATADriver) Recover() error {
	last := -1
	for i := 0; i < device.SATASlots; i++ {
		if d.slots[i] != nil {
			last = i
		}
	}
	for i := 0; i < device.SATASlots; i++ {
		cmd := d.slots[i]
		if cmd == nil {
			continue
		}
		_ = d.prot.Unmap(RingRx, cmd.m.iova, cmd.m.size, i == last)
		d.pool.Put(cmd.m.pa)
		d.slots[i] = nil
	}
	d.disk.ResetDevice()
	return nil
}

// Progress returns the drive's forward-progress counter for the watchdog.
func (d *SATADriver) Progress() uint64 { return d.disk.Commands }

// Teardown drains and releases buffers.
func (d *SATADriver) Teardown(rng *rand.Rand) error {
	if _, err := d.CompleteAll(rng); err != nil {
		return err
	}
	return d.pool.Destroy()
}
