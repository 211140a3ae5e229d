package device

import (
	"fmt"
	"math/rand"

	"riommu/internal/dma"
	"riommu/internal/pci"
)

// SATA models an AHCI disk (§4, Applicability): a single queue of 32 command
// slots that the drive may process in arbitrary order. The out-of-order
// completion is exactly why rIOMMU's flat sequential tables do not target
// AHCI — and, per the paper's Bonnie++ measurement, why they do not need to:
// SATA drives are too slow for IOMMU overhead to matter.
const SATASlots = 32

// SATA command opcodes.
const (
	SATARead  = 0 // device writes host memory
	SATAWrite = 1 // device reads host memory
)

// SATACommand is one issued command slot.
type SATACommand struct {
	BufIOVA uint64
	Block   uint64
	Length  uint32
	Op      int
}

// SATA is the drive model with its single 32-slot queue.
type SATA struct {
	bdf       pci.BDF
	eng       *dma.Engine
	BlockSize uint32

	store   blockStore // sparse disk contents (see blockstore.go)
	scratch []byte     // reusable DMA target for write commands

	slots  [SATASlots]*SATACommand
	issued uint32 // bitmask of occupied slots

	Commands uint64
	Faults   uint64

	// SeqLatencyCycles is the device-side service time per command,
	// reflecting that disks, not the CPU, bound SATA throughput.
	SeqLatencyCycles uint64
}

// NewSATA creates a drive with the given geometry.
func NewSATA(bdf pci.BDF, eng *dma.Engine, blockSize uint32, blocks uint64) *SATA {
	s := &SATA{
		bdf:              bdf,
		eng:              eng,
		BlockSize:        blockSize,
		store:            newBlockStore(uint64(blockSize) * blocks),
		SeqLatencyCycles: 300_000, // ~100 µs/op at 3.1 GHz: a fast SATA SSD
	}
	return s
}

// storageRead returns n bytes of disk content at off. The returned slice is
// valid until the next storageRead or storageWrite and must not be written.
func (s *SATA) storageRead(off uint64, n uint32) []byte { return s.store.read(off, n) }

// storageWrite stores src at off, allocating chunks on first touch.
func (s *SATA) storageWrite(off uint64, src []byte) { s.store.write(off, src) }

// BDF returns the drive's PCI identity.
func (s *SATA) BDF() pci.BDF { return s.bdf }

// ResetDevice models an AHCI port reset: every issued-but-incomplete command
// is discarded (the driver resubmits) and an injected hang is cleared.
func (s *SATA) ResetDevice() {
	for i := range s.slots {
		s.slots[i] = nil
	}
	s.issued = 0
	s.eng.Faults().ClearHang(s.bdf)
}

// Issue places a command in a free slot, returning the slot index.
func (s *SATA) Issue(cmd SATACommand) (int, error) {
	for i := 0; i < SATASlots; i++ {
		if s.issued&(1<<i) == 0 {
			c := cmd
			s.slots[i] = &c
			s.issued |= 1 << i
			return i, nil
		}
	}
	return -1, fmt.Errorf("sata: all %d slots busy", SATASlots)
}

// CompleteAll processes every issued slot in a pseudo-random order drawn
// from rng (pass a seeded source for determinism), returning the slots in
// completion order. This is the AHCI behaviour that breaks the sequential
// (un)mapping premise rIOMMU relies on.
func (s *SATA) CompleteAll(rng *rand.Rand) ([]int, error) {
	if s.eng.Faults().HangCheck(s.bdf) {
		return nil, nil // wedged: issued commands sit in their slots (watchdog territory)
	}
	var order []int
	for i := 0; i < SATASlots; i++ {
		if s.issued&(1<<i) != 0 {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, slot := range order {
		if err := s.complete(slot); err != nil {
			return order, err
		}
	}
	return order, nil
}

func (s *SATA) complete(slot int) error {
	cmd := s.slots[slot]
	if cmd == nil {
		return fmt.Errorf("sata: completing empty slot %d", slot)
	}
	off := cmd.Block * uint64(s.BlockSize)
	if off+uint64(cmd.Length) > s.store.size {
		return fmt.Errorf("sata: block %d out of range", cmd.Block)
	}
	switch cmd.Op {
	case SATARead:
		if err := s.eng.Write(s.bdf, cmd.BufIOVA, s.storageRead(off, cmd.Length)); err != nil {
			s.Faults++
			return fmt.Errorf("sata: read DMA: %w", err)
		}
	case SATAWrite:
		if uint32(cap(s.scratch)) < cmd.Length {
			s.scratch = make([]byte, cmd.Length)
		}
		buf := s.scratch[:cmd.Length]
		if err := s.eng.Read(s.bdf, cmd.BufIOVA, buf); err != nil {
			s.Faults++
			return fmt.Errorf("sata: write DMA: %w", err)
		}
		s.storageWrite(off, buf)
	default:
		return fmt.Errorf("sata: bad opcode %d", cmd.Op)
	}
	s.slots[slot] = nil
	s.issued &^= 1 << slot
	s.Commands++
	return nil
}
