// Package ring implements the circular DMA descriptor rings through which
// drivers and high-bandwidth devices exchange work (§2.3): an array of
// descriptors in (simulated) physical memory, shared between the OS driver —
// which adds descriptors at the tail — and the device — which consumes them
// from the head in order. Descriptor addresses are IOVAs when an IOMMU is
// enabled, so the device's descriptor fetches and target-buffer accesses are
// both translated.
package ring

import (
	"encoding/binary"
	"fmt"

	"riommu/internal/mem"
)

// Descriptor is one DMA descriptor. The exact format varies between real
// devices; ours carries the minimum the paper describes: the target buffer's
// address (an IOVA) and size, plus status bits used for synchronization.
type Descriptor struct {
	Addr  uint64 // target buffer IOVA
	Len   uint32 // target buffer length in bytes
	Flags uint32 // status bits
}

// Descriptor status bits.
const (
	// FlagReady marks a descriptor posted by the driver and owned by the
	// device.
	FlagReady uint32 = 1 << 0
	// FlagDone marks a descriptor completed by the device and returned to
	// the driver.
	FlagDone uint32 = 1 << 1
	// FlagError marks a completion that failed (e.g. a DMA fault).
	FlagError uint32 = 1 << 2
	// FlagInline marks a descriptor whose payload is carried inside the
	// descriptor itself (in the Addr field) rather than in a mapped target
	// buffer — the inline-send path NICs provide for tiny packets. Inline
	// descriptors require no IOVA and always describe a whole packet.
	FlagInline uint32 = 1 << 3
)

// DescBytes is the in-memory size of one descriptor.
const DescBytes = 16

// Ring is the driver-side view of one descriptor ring. head is advanced by
// the device model as it consumes descriptors; tail by the driver as it
// posts them. The ring is full when it holds Size-1 pending descriptors
// (one slot is kept open to distinguish full from empty, as in real NICs).
type Ring struct {
	mm     *mem.PhysMem
	basePA mem.PA
	frames mem.PFN
	nfr    int
	size   uint32
	mask   uint32 // size-1 when size is a power of two, else 0
	buf    []byte // direct view of the descriptor array (mem.Span)

	head uint32 // next descriptor the device will consume
	tail uint32 // next slot the driver will fill

	deviceAddr uint64 // ring base as the device addresses it (IOVA)
}

// New allocates a ring of size descriptors in simulated memory.
func New(mm *mem.PhysMem, size uint32) (*Ring, error) {
	if size < 2 {
		return nil, fmt.Errorf("ring: size %d too small (need >= 2)", size)
	}
	bytes := uint64(size) * DescBytes
	nfr := int((bytes + mem.PageSize - 1) / mem.PageSize)
	f, err := mm.AllocFrames(nfr)
	if err != nil {
		return nil, fmt.Errorf("ring: allocating descriptor array: %w", err)
	}
	buf, err := mm.Span(f.PA(), bytes)
	if err != nil {
		return nil, fmt.Errorf("ring: mapping descriptor array: %w", err)
	}
	r := &Ring{mm: mm, basePA: f.PA(), frames: f, nfr: nfr, size: size, buf: buf}
	if size&(size-1) == 0 {
		r.mask = size - 1 // real NIC ring sizes: index with a mask, not a division
	}
	return r, nil
}

// idx reduces a cursor or slot number modulo the ring size.
func (r *Ring) idx(i uint32) uint32 {
	if r.mask != 0 {
		return i & r.mask
	}
	return i % r.size
}

// Free releases the descriptor array.
func (r *Ring) Free() error {
	for i := 0; i < r.nfr; i++ {
		if err := r.mm.FreeFrame(r.frames + mem.PFN(i)); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the number of descriptor slots.
func (r *Ring) Size() uint32 { return r.size }

// Reset clears the ring to its initial state: cursors at zero and all
// descriptor memory zeroed. Used when the OS reinitializes a device after
// an I/O page fault (§4).
func (r *Ring) Reset() error {
	r.head, r.tail = 0, 0
	return r.mm.Fill(r.basePA, uint64(r.size)*DescBytes, 0)
}

// BasePA returns the physical base of the descriptor array.
func (r *Ring) BasePA() mem.PA { return r.basePA }

// Bytes returns the size of the descriptor array in bytes.
func (r *Ring) Bytes() uint32 { return r.size * DescBytes }

// SetDeviceAddr records the address (IOVA) at which the device sees the
// ring; configured during device initialization after the ring's pages are
// mapped for the device.
func (r *Ring) SetDeviceAddr(iova uint64) { r.deviceAddr = iova }

// DeviceAddr returns the device-visible base address of the ring.
func (r *Ring) DeviceAddr() uint64 { return r.deviceAddr }

// DeviceSlotAddr returns the device-visible address of slot i.
func (r *Ring) DeviceSlotAddr(i uint32) uint64 {
	return r.deviceAddr + uint64(r.idx(i))*DescBytes
}

// Head returns the device cursor; Tail the driver cursor.
func (r *Ring) Head() uint32 { return r.head }

// Tail returns the driver cursor.
func (r *Ring) Tail() uint32 { return r.tail }

// Pending returns the number of descriptors posted but not yet consumed by
// the device.
func (r *Ring) Pending() uint32 {
	if r.mask != 0 {
		return (r.tail - r.head) & r.mask
	}
	return (r.tail + r.size - r.head) % r.size
}

// Full reports whether the ring cannot accept another descriptor.
func (r *Ring) Full() bool { return r.idx(r.tail+1) == r.head }

// Empty reports whether no descriptors are pending.
func (r *Ring) Empty() bool { return r.head == r.tail }

// encode/decode descriptor <-> memory words.
func encode(d Descriptor) (uint64, uint64) {
	return d.Addr, uint64(d.Len) | uint64(d.Flags)<<32
}

func decode(w0, w1 uint64) Descriptor {
	return Descriptor{Addr: w0, Len: uint32(w1), Flags: uint32(w1 >> 32)}
}

// WriteSlot stores a descriptor into slot i (driver-side, direct memory).
// Slots are accessed through the Span view taken at allocation: the array
// stays allocated for the ring's lifetime and i wraps modulo the size, so
// the store cannot fail, and device DMA to the same bytes stays coherent
// with it.
func (r *Ring) WriteSlot(i uint32, d Descriptor) {
	s := r.buf[r.idx(i)*DescBytes:]
	w0, w1 := encode(d)
	binary.LittleEndian.PutUint64(s, w0)
	binary.LittleEndian.PutUint64(s[8:], w1)
}

// ReadSlot loads the descriptor in slot i (driver-side, direct memory).
func (r *Ring) ReadSlot(i uint32) Descriptor {
	s := r.buf[r.idx(i)*DescBytes:]
	return decode(binary.LittleEndian.Uint64(s), binary.LittleEndian.Uint64(s[8:]))
}

// Post adds a descriptor at the tail and advances it. It fails when the
// ring is full (the driver must slow down, §4).
func (r *Ring) Post(d Descriptor) (slot uint32, err error) {
	if r.Full() {
		return 0, fmt.Errorf("ring: full (%d pending)", r.Pending())
	}
	slot = r.tail
	d.Flags = (d.Flags &^ FlagDone) | FlagReady
	r.WriteSlot(slot, d)
	r.tail = r.idx(r.tail + 1)
	return slot, nil
}

// AdvanceHead moves the device cursor past one consumed descriptor. Called
// by the device model after it finishes the DMA for the head descriptor.
func (r *Ring) AdvanceHead() error {
	if r.Empty() {
		return fmt.Errorf("ring: advancing head of empty ring")
	}
	r.head = r.idx(r.head + 1)
	return nil
}

// Reap returns the completed descriptor in slot i and clears its status so
// the slot can be reused. It fails if the descriptor is not marked done.
func (r *Ring) Reap(i uint32) (Descriptor, error) {
	d := r.ReadSlot(i)
	if d.Flags&FlagDone == 0 {
		return Descriptor{}, fmt.Errorf("ring: slot %d not complete (flags=%#x)", i, d.Flags)
	}
	clear := d
	clear.Flags = 0
	r.WriteSlot(i, clear)
	return d, nil
}

// EncodeWords exposes the descriptor encoding for device models that access
// the ring through DMA rather than directly.
func EncodeWords(d Descriptor) (uint64, uint64) { return encode(d) }

// DecodeWords is the inverse of EncodeWords.
func DecodeWords(w0, w1 uint64) Descriptor { return decode(w0, w1) }
