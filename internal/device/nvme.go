package device

import (
	"fmt"

	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// NVMe models a PCIe SSD controller following the NVM Express queue-pair
// design the paper discusses in §4: the host posts fixed-size commands into
// a submission queue (SQ) in host memory; the device consumes them strictly
// in order, performs the data DMAs, and posts completions into a completion
// queue (CQ) — all through translated addresses. The in-order consumption is
// what makes rIOMMU applicable to NVMe devices.
//
// Command layout (32 bytes): word0 = data buffer IOVA, word1 = starting
// block, word2 packs the byte length (low 32) and opcode (high 32).
// Completion layout (16 bytes): word0 packs command id (low 32) and status
// (high 32); word1 is reserved.
const (
	NVMeCommandBytes    = 32
	NVMeCompletionBytes = 16

	// NVMe opcodes (subset).
	NVMeOpRead  = 0x02 // device writes host memory
	NVMeOpWrite = 0x01 // device reads host memory

	// NVMeFlagPRPList marks a command whose buffer field points at a PRP
	// list: an array of 8-byte IOVA entries, one per page of the transfer,
	// that the device fetches through translation before performing the
	// data DMAs. This is the scatter-gather mode of §4, where a single
	// command carries K IOVAs.
	NVMeFlagPRPList = 1 << 16

	// Completion statuses.
	NVMeStatusOK    = 0
	NVMeStatusFault = 1 // data DMA faulted
	NVMeStatusLBA   = 2 // out-of-range block
)

// NVMeQueuePair is one SQ/CQ pair allocated in simulated host memory.
type NVMeQueuePair struct {
	mm      *mem.PhysMem
	sqPA    mem.PA
	cqPA    mem.PA
	sqAddr  uint64 // device-visible SQ base (IOVA)
	cqAddr  uint64 // device-visible CQ base (IOVA)
	entries uint32
	frames  []mem.PFN

	sqHead, sqTail uint32 // device / host cursors
	cqTail         uint32 // device cursor (host reaps by polling phase)
	nextCID        uint32
}

// NewNVMeQueuePair allocates an SQ/CQ pair with the given entry count.
func NewNVMeQueuePair(mm *mem.PhysMem, entries uint32) (*NVMeQueuePair, error) {
	if entries < 2 || entries > 65536 {
		return nil, fmt.Errorf("nvme: queue depth %d out of range (2..64K)", entries)
	}
	q := &NVMeQueuePair{mm: mm, entries: entries}
	for _, alloc := range []struct {
		pa    *mem.PA
		bytes uint64
	}{
		{&q.sqPA, uint64(entries) * NVMeCommandBytes},
		{&q.cqPA, uint64(entries) * NVMeCompletionBytes},
	} {
		nfr := int((alloc.bytes + mem.PageSize - 1) / mem.PageSize)
		f, err := mm.AllocFrames(nfr)
		if err != nil {
			return nil, fmt.Errorf("nvme: allocating queue: %w", err)
		}
		*alloc.pa = f.PA()
		for i := 0; i < nfr; i++ {
			q.frames = append(q.frames, f+mem.PFN(i))
		}
	}
	return q, nil
}

// Free releases the queue memory.
func (q *NVMeQueuePair) Free() error {
	for _, f := range q.frames {
		if err := q.mm.FreeFrame(f); err != nil {
			return err
		}
	}
	q.frames = nil
	return nil
}

// SQPA and CQPA return the queues' physical bases (for device mapping).
func (q *NVMeQueuePair) SQPA() mem.PA { return q.sqPA }

// CQPA returns the completion queue's physical base.
func (q *NVMeQueuePair) CQPA() mem.PA { return q.cqPA }

// SQBytes returns the submission queue size in bytes.
func (q *NVMeQueuePair) SQBytes() uint32 { return q.entries * NVMeCommandBytes }

// CQBytes returns the completion queue size in bytes.
func (q *NVMeQueuePair) CQBytes() uint32 { return q.entries * NVMeCompletionBytes }

// SetDeviceAddrs records the IOVAs at which the device sees the queues.
func (q *NVMeQueuePair) SetDeviceAddrs(sq, cq uint64) { q.sqAddr, q.cqAddr = sq, cq }

// Reset returns the queue pair to its initial state: cursors and command
// ids zeroed and both queues' memory cleared, as an NVMe controller reset
// does. In-flight commands are lost (the driver resubmits).
func (q *NVMeQueuePair) Reset() error {
	q.sqHead, q.sqTail, q.cqTail, q.nextCID = 0, 0, 0, 0
	if err := q.mm.Fill(q.sqPA, uint64(q.SQBytes()), 0); err != nil {
		return err
	}
	return q.mm.Fill(q.cqPA, uint64(q.CQBytes()), 0)
}

// Entries returns the queue depth.
func (q *NVMeQueuePair) Entries() uint32 { return q.entries }

// Pending returns the number of submitted, unconsumed commands.
func (q *NVMeQueuePair) Pending() uint32 { return (q.sqTail + q.entries - q.sqHead) % q.entries }

// Submit writes a command at the SQ tail (host-side, direct memory access)
// and returns its command id. Fails when the queue is full.
func (q *NVMeQueuePair) Submit(bufIOVA uint64, block uint64, length uint32, opcode uint32) (uint32, error) {
	if (q.sqTail+1)%q.entries == q.sqHead {
		return 0, fmt.Errorf("nvme: submission queue full")
	}
	cid := q.nextCID
	q.nextCID++
	pa := q.sqPA + mem.PA(q.sqTail*NVMeCommandBytes)
	if err := q.mm.WriteU64(pa, bufIOVA); err != nil {
		return 0, err
	}
	if err := q.mm.WriteU64(pa+8, block); err != nil {
		return 0, err
	}
	if err := q.mm.WriteU64(pa+16, uint64(length)|uint64(opcode)<<32); err != nil {
		return 0, err
	}
	if err := q.mm.WriteU64(pa+24, uint64(cid)); err != nil {
		return 0, err
	}
	q.sqTail = (q.sqTail + 1) % q.entries
	return cid, nil
}

// Completion is a reaped CQ entry.
type Completion struct {
	CID    uint32
	Status uint32
}

// ReapCompletion reads and consumes the oldest unread completion, if any.
// completionsSeen tracks how many the host has already consumed.
func (q *NVMeQueuePair) ReapCompletion(seen uint32) (Completion, bool, error) {
	if seen == q.cqTail || (q.cqTail+q.entries-seen)%q.entries == 0 {
		return Completion{}, false, nil
	}
	pa := q.cqPA + mem.PA((seen%q.entries)*NVMeCompletionBytes)
	w, err := q.mm.ReadU64(pa)
	if err != nil {
		return Completion{}, false, err
	}
	return Completion{CID: uint32(w), Status: uint32(w >> 32)}, true, nil
}

// NVMe is the device-side SSD model: a namespace of blocks plus the queue
// consumption logic.
type NVMe struct {
	bdf       pci.BDF
	eng       *dma.Engine
	BlockSize uint32
	store     blockStore // sparse namespace contents (see blockstore.go)
	wbuf      []byte     // reusable DMA target for write commands

	Commands uint64
	Faults   uint64
}

// NewNVMe creates an SSD with the given number of blocks.
func NewNVMe(bdf pci.BDF, eng *dma.Engine, blockSize uint32, blocks uint64) *NVMe {
	n := &NVMe{bdf: bdf, eng: eng, BlockSize: blockSize, store: newBlockStore(uint64(blockSize) * blocks)}
	return n
}

// BDF returns the device's PCI identity.
func (n *NVMe) BDF() pci.BDF { return n.bdf }

// writeScratch returns a reused sz-byte DMA target for write commands.
func (n *NVMe) writeScratch(sz uint32) []byte {
	if uint32(cap(n.wbuf)) < sz {
		n.wbuf = make([]byte, sz)
	}
	return n.wbuf[:sz]
}

// ResetDevice models a controller-level reset: an injected hang is cleared
// so the device resumes consuming its queues. Namespace contents survive.
func (n *NVMe) ResetDevice() { n.eng.Faults().ClearHang(n.bdf) }

// processPRP performs a scatter-gather transfer: fetch the PRP list (one
// 8-byte IOVA per 4 KiB segment) through translation, then DMA each
// segment. Any faulting segment fails the whole command.
func (n *NVMe) processPRP(listIOVA uint64, off uint64, length uint32, op uint32) uint32 {
	const seg = 4096
	entries := int((length + seg - 1) / seg)
	for i := 0; i < entries; i++ {
		iova, err := n.eng.ReadU64(n.bdf, listIOVA+uint64(i*8))
		if err != nil {
			n.Faults++
			return NVMeStatusFault
		}
		sz := uint32(seg)
		if rem := length - uint32(i*seg); rem < sz {
			sz = rem
		}
		so := off + uint64(i*seg)
		switch op {
		case NVMeOpRead:
			if err := n.eng.Write(n.bdf, iova, n.store.read(so, sz)); err != nil {
				n.Faults++
				return NVMeStatusFault
			}
		case NVMeOpWrite:
			buf := n.writeScratch(sz)
			if err := n.eng.Read(n.bdf, iova, buf); err != nil {
				n.Faults++
				return NVMeStatusFault
			}
			n.store.write(so, buf)
		}
	}
	return NVMeStatusOK
}

// ProcessSQ consumes up to max commands from the queue pair, strictly in
// submission order, performing the data DMAs and posting completions.
func (n *NVMe) ProcessSQ(q *NVMeQueuePair, max int) (int, error) {
	if n.eng.Faults().HangCheck(n.bdf) {
		return 0, nil // wedged: stops consuming the SQ (watchdog territory)
	}
	done := 0
	for done < max && q.Pending() > 0 {
		cmdAddr := q.sqAddr + uint64(q.sqHead*NVMeCommandBytes)
		bufIOVA, err := n.eng.ReadU64(n.bdf, cmdAddr)
		if err != nil {
			n.Faults++
			return done, fmt.Errorf("nvme: command fetch: %w", err)
		}
		block, err := n.eng.ReadU64(n.bdf, cmdAddr+8)
		if err != nil {
			return done, err
		}
		w2, err := n.eng.ReadU64(n.bdf, cmdAddr+16)
		if err != nil {
			return done, err
		}
		// A flaky controller may mis-parse the fetched command: flip a bit
		// across the buffer-address/geometry words.
		n.eng.Faults().FlipDescriptor(n.bdf, cmdAddr, &bufIOVA, &w2)
		w3, err := n.eng.ReadU64(n.bdf, cmdAddr+24)
		if err != nil {
			return done, err
		}
		length, opcode, cid := uint32(w2), uint32(w2>>32), uint32(w3)

		status := uint32(NVMeStatusOK)
		off := block * uint64(n.BlockSize)
		op := opcode &^ uint32(NVMeFlagPRPList)
		if off+uint64(length) > n.store.size || (op != NVMeOpRead && op != NVMeOpWrite) {
			status = NVMeStatusLBA
		} else if opcode&NVMeFlagPRPList != 0 {
			status = n.processPRP(bufIOVA, off, length, op)
		} else {
			switch op {
			case NVMeOpRead: // device -> host memory
				if err := n.eng.Write(n.bdf, bufIOVA, n.store.read(off, length)); err != nil {
					n.Faults++
					status = NVMeStatusFault
				}
			case NVMeOpWrite: // host memory -> device
				buf := n.writeScratch(length)
				if err := n.eng.Read(n.bdf, bufIOVA, buf); err != nil {
					n.Faults++
					status = NVMeStatusFault
				} else {
					n.store.write(off, buf)
				}
			}
		}
		// Post the completion via DMA.
		cqAddr := q.cqAddr + uint64((q.cqTail%q.entries)*NVMeCompletionBytes)
		if err := n.eng.WriteU64(n.bdf, cqAddr, uint64(cid)|uint64(status)<<32); err != nil {
			n.Faults++
			return done, fmt.Errorf("nvme: completion post: %w", err)
		}
		q.cqTail = (q.cqTail + 1) % q.entries
		q.sqHead = (q.sqHead + 1) % q.entries
		n.Commands++
		done++
	}
	return done, nil
}
