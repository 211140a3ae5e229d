package traffic

// The kernel-bypass data path: a DPDK-style buffer pool mapped once at
// engine init (persistent user-level mappings, §5.3 promoted to a stack).
// A bypass packet costs only a busy-poll CPU charge; the DMA itself runs
// on the device clock through whatever translation hardware the mode
// provides, so the oracle still audits every access. The rearm process
// (one pool buffer unmapped and remapped every bypassRearmEvery packets)
// keeps each mode's invalidation cost on the books, amortized the way a
// real bypass stack amortizes pool maintenance.

import (
	"bytes"
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

const (
	bypassBufs     = 64
	bypassBufBytes = 2048
)

type bypassPool struct {
	pa       [bypassBufs]mem.PA
	iova     [bypassBufs]uint64
	next     int // round-robin TX buffer cursor
	rxNext   int // round-robin RX buffer cursor
	rearmDue int
	rearmIdx int
}

func (e *Engine) initBypass() error {
	for i := 0; i < bypassBufs; i++ {
		pfn, err := e.sys.Mem.AllocFrame()
		if err != nil {
			return err
		}
		e.bp.pa[i] = pfn.PA()
		if err := e.mapBypass(i); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) mapBypass(i int) error {
	if e.slot != nil {
		iova, err := e.slot.MapAt(ringBypass, uint32(i), e.bp.pa[i], bypassBufBytes, pci.DirBidi)
		if err != nil {
			return err
		}
		e.noteMap('M', ringBypass, iova, bypassBufBytes, uint64(pci.DirBidi))
		e.bp.iova[i] = iova
		return nil
	}
	iova, err := e.mp.Map(ringBypass, e.bp.pa[i], bypassBufBytes, pci.DirBidi)
	if err != nil {
		return err
	}
	e.bp.iova[i] = iova
	return nil
}

// bypassTx transmits one packet on the bypass path: busy-poll charge, copy
// into the next pool buffer, then the device fetches it through the IOMMU
// — verified byte-for-byte against what was written.
func (e *Engine) bypassTx(p []byte) error {
	e.sys.CPU.Charge(cycles.Stack, e.pollCy)
	b := &e.bp
	i := b.next
	b.next = (b.next + 1) % bypassBufs
	if err := e.sys.Mem.Write(b.pa[i], p); err != nil {
		return err
	}
	rb := e.readback[:len(p)]
	if err := e.sys.Eng.Read(BDF, b.iova[i], rb); err != nil {
		return err
	}
	if !bytes.Equal(rb, p) {
		return fmt.Errorf("traffic: bypass readback mismatch on buffer %d", i)
	}
	return e.bypassRearm()
}

// bypassRx receives one packet on the bypass path: the device writes into
// the next pool buffer through the IOMMU (the poll charge is the caller's).
func (e *Engine) bypassRx(p []byte) error {
	b := &e.bp
	i := b.rxNext
	b.rxNext = (b.rxNext + 1) % bypassBufs
	return e.sys.Eng.Write(BDF, b.iova[i], p)
}

func (e *Engine) bypassRearm() error {
	b := &e.bp
	b.rearmDue++
	if b.rearmDue < bypassRearmEvery {
		return nil
	}
	b.rearmDue = 0
	i := b.rearmIdx
	b.rearmIdx = (b.rearmIdx + 1) % bypassBufs
	if err := e.mp.Unmap(ringBypass, b.iova[i], bypassBufBytes, true); err != nil {
		return err
	}
	return e.mapBypass(i)
}
