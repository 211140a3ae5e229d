package intremap

import "riommu/internal/pci"

// Source is one queue's pair of MSI-X vectors (Rx completion, Tx
// completion) plus the edge-triggered pending latch between the device
// model and the driver's reap paths. The device raises (RaiseRx/RaiseTx)
// when it completes work; the driver fires (FireRx/FireTx) when it services
// the queue, which coalesces any pending raises into one message through
// the remapper — the NAPI-style model the paper's interrupt-driven
// configuration assumes.
//
// Source implements the device-side device.IRQLine and the driver-side
// driver.QueueIRQ interfaces.
type Source struct {
	rem  *Remapper
	bdf  pci.BDF
	core int

	rxIdx, txIdx int // IRTE indices, -1 in pass-through
	rxVec, txVec uint8

	pendRx, pendTx uint32
	closed         bool
}

// VectorBase is the first vector number handed to queue 0 (the x86
// external-interrupt floor).
const VectorBase = 0x20

// NewSource allocates the Rx/Tx vector pair for one queue of a device,
// targeting destCore. In pass-through mode no IRTEs exist and deliveries
// use the vector/core values directly (compatibility format).
func (r *Remapper) NewSource(bdf pci.BDF, queue, destCore int, posted bool) (*Source, error) {
	s := &Source{
		rem:   r,
		bdf:   bdf,
		core:  destCore,
		rxIdx: -1,
		txIdx: -1,
		rxVec: uint8(VectorBase + 2*queue),
		txVec: uint8(VectorBase + 2*queue + 1),
	}
	if r.cfg.PassThrough {
		return s, nil
	}
	var err error
	if s.rxIdx, err = r.Alloc(bdf, s.rxVec, destCore, posted); err != nil {
		return nil, err
	}
	if s.txIdx, err = r.Alloc(bdf, s.txVec, destCore, posted); err != nil {
		_ = r.Free(s.rxIdx)
		return nil, err
	}
	return s, nil
}

// RaiseRx latches a pending Rx-completion interrupt (device side).
func (s *Source) RaiseRx() {
	if !s.closed {
		s.pendRx++
	}
}

// RaiseTx latches a pending Tx-completion interrupt (device side).
func (s *Source) RaiseTx() {
	if !s.closed {
		s.pendTx++
	}
}

// FireRx delivers the pending Rx interrupt, if any, through the remapper.
func (s *Source) FireRx() {
	if s.closed || s.pendRx == 0 {
		return
	}
	s.pendRx = 0
	s.rem.Deliver(s.bdf, s.rxIdx, s.rxVec, s.core)
}

// FireTx delivers the pending Tx interrupt, if any, through the remapper.
func (s *Source) FireTx() {
	if s.closed || s.pendTx == 0 {
		return
	}
	s.pendTx = 0
	s.rem.Deliver(s.bdf, s.txIdx, s.txVec, s.core)
}

// Drop discards all pending interrupt state without delivery (queue reset:
// a recovered queue must not replay pre-reset completions). It returns how
// many latched raises were discarded.
func (s *Source) Drop() int {
	n := int(s.pendRx) + int(s.pendTx)
	s.pendRx, s.pendTx = 0, 0
	return n
}

// Pending returns the currently latched (undelivered) raise count.
func (s *Source) Pending() int { return int(s.pendRx) + int(s.pendTx) }

// Close drops pending state and frees the source's IRTEs; after Close the
// source neither latches nor delivers (the device is gone).
func (s *Source) Close() {
	if s.closed {
		return
	}
	s.Drop()
	s.closed = true
	if s.rxIdx >= 0 {
		_ = s.rem.Free(s.rxIdx)
	}
	if s.txIdx >= 0 {
		_ = s.rem.Free(s.txIdx)
	}
}

// Closed reports whether Close has run.
func (s *Source) Closed() bool { return s.closed }

// Indices returns the (rx, tx) IRTE indices (-1, -1 in pass-through).
func (s *Source) Indices() (int, int) { return s.rxIdx, s.txIdx }
