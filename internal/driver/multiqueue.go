package driver

import (
	"fmt"

	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Multi-queue support (§2.3): NICs "may employ multiple Rx/Tx rings per
// port to promote scalability, as different rings can be handled
// concurrently by different cores". Each queue is an independent NICDriver
// over its own ring pair; under rIOMMU protection each queue's Rx and Tx
// buffers live in their own flat tables, so each queue gets its own rIOTLB
// entries and its own end-of-burst invalidations.

// Ring-ID layout for a multi-queue device: flat table 0 holds the
// persistent ring-page mappings of every queue; queue q's dynamic buffers
// use tables 1+2q (Rx) and 2+2q (Tx).
func queueRingRx(q int) int { return 1 + 2*q }
func queueRingTx(q int) int { return 2 + 2*q }

// RIOMMURingSizesQ returns the flat-table sizes for a NIC with `queues`
// queue pairs of the given profile.
func RIOMMURingSizesQ(p device.NICProfile, queues int) []uint32 {
	sizes := make([]uint32, 1+2*queues)
	sizes[0] = uint32(2 + 2*queues) // static: Rx+Tx ring mapping per queue
	for q := 0; q < queues; q++ {
		sizes[queueRingRx(q)] = 2 * p.RxEntries * uint32(p.BuffersPerPacket)
		sizes[queueRingTx(q)] = 2 * p.TxEntries * uint32(p.BuffersPerPacket)
	}
	return sizes
}

// MQNIC is a multi-queue NIC: one NICDriver (and device-model queue) per
// ring pair, sharing the device identity and protection domain.
type MQNIC struct {
	Queues []*NICDriver
	nics   []*device.NIC
	next   int // round-robin transmit cursor
}

// NewMQNIC builds a NIC with the given number of queue pairs.
func NewMQNIC(mm *mem.PhysMem, prot Protection, eng *dma.Engine, profile device.NICProfile, bdf pci.BDF, queues int) (*MQNIC, error) {
	if queues < 1 {
		return nil, fmt.Errorf("driver: need at least one queue, got %d", queues)
	}
	mq := &MQNIC{}
	for q := 0; q < queues; q++ {
		drv, nic, err := newNICDriverQueue(mm, prot, eng, profile, bdf, q)
		if err != nil {
			return nil, fmt.Errorf("driver: queue %d: %w", q, err)
		}
		mq.Queues = append(mq.Queues, drv)
		mq.nics = append(mq.nics, nic)
	}
	return mq, nil
}

// NIC returns the device model of queue q.
func (m *MQNIC) NIC(q int) *device.NIC { return m.nics[q] }

// Send transmits on the next queue round-robin (a simple RSS stand-in).
func (m *MQNIC) Send(payload []byte) error {
	q := m.next
	m.next = (m.next + 1) % len(m.Queues)
	return m.Queues[q].Send(payload)
}

// PumpAndReapAll drains every queue's transmit path, returning total packets.
func (m *MQNIC) PumpAndReapAll() (int, error) {
	total := 0
	for _, drv := range m.Queues {
		if _, err := drv.PumpTx(int(drv.TxRing().Pending())); err != nil {
			return total, err
		}
		n, err := drv.ReapTx()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Deliver places a frame on queue q's receive path.
func (m *MQNIC) Deliver(q int, frame []byte) error { return m.Queues[q].Deliver(frame) }

// ReapRxAll runs every queue's Rx interrupt handler and returns the number
// of packets received (see NICDriver.ReapRx; a caller that reads the
// frames reaps each queue with ReapRxFrames).
func (m *MQNIC) ReapRxAll() (int, error) {
	total := 0
	for _, drv := range m.Queues {
		n, err := drv.ReapRx()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Recover reinitializes every queue pair in order — the OS response to a
// device-level fault on a multi-queue NIC resets the whole port, not a
// single channel. The first queue that fails to recover aborts (the device
// is left for the supervisor's next escalation step). Implements
// driver.Recoverable, so an MQNIC can run under a Supervisor like the
// single-queue drivers.
func (m *MQNIC) Recover() error {
	for q, drv := range m.Queues {
		if err := drv.Recover(); err != nil {
			return fmt.Errorf("driver: queue %d recover: %w", q, err)
		}
	}
	return nil
}

// Progress sums forward progress across all queues (Recoverable's hang
// signal: the watchdog sees the port wedged only if every queue is stuck).
func (m *MQNIC) Progress() uint64 {
	var total uint64
	for _, drv := range m.Queues {
		total += drv.Progress()
	}
	return total
}

// Teardown releases every queue.
func (m *MQNIC) Teardown() error {
	var lastErr error
	for _, drv := range m.Queues {
		if err := drv.Teardown(); err != nil {
			lastErr = err
		}
	}
	return lastErr
}
