// Package netstack models the network-stack side of packet processing: MSS
// segmentation, the per-packet TCP/IP + interrupt cost (the "other" bar of
// Figure 7, C_none = 1,816 cycles on the paper's mlx setup), delayed-ack
// return traffic, and interrupt-coalesced completion bursts (~200 iterations
// for throughput-sensitive workloads, §4).
//
// All protocol processing is charged to the Stack component of the CPU
// clock; the map/unmap costs accrue inside the protection driver as the
// packets flow.
package netstack

import (
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
)

// Params calibrates a connection's cost model for one NIC setup.
type Params struct {
	// MSS is the TCP payload per packet.
	MSS int
	// StackCyclesPerPacket is the per-data-packet protocol cost: TCP/IP
	// processing, socket work, and the amortized interrupt share. This is
	// the whole of C in none mode.
	StackCyclesPerPacket uint64
	// AckEvery delivers one ack frame for every AckEvery transmitted data
	// packets (delayed acks + interrupt moderation).
	AckEvery int
	// AckReapEvery configures the Rx interrupt coalescer: the handler runs
	// once per this many delivered acks, so Rx unmaps happen in bursts.
	AckReapEvery int
	// TxBurst is the Tx completion burst: the driver reaps (and unmaps) in
	// batches of this many packets, the paper's ~200-iteration loop.
	TxBurst int
	// AckBytes is the size of an ack frame on the wire.
	AckBytes int
}

// DefaultParams returns the calibrated parameters for a NIC profile.
// mlx: C_none = 1,816 (Figure 7). brcm: the more efficient driver/kernel —
// calibrated from the brcm CPU ratios of Table 2 (≈1,230 cycles/packet).
func DefaultParams(p device.NICProfile) Params {
	stack := uint64(1816)
	if p.Name == "brcm" {
		stack = 1230
	}
	return Params{
		MSS:                  1448,
		StackCyclesPerPacket: stack,
		AckEvery:             8,
		AckReapEvery:         16,
		TxBurst:              200,
		AckBytes:             64,
	}
}

// Conn is one active connection pumping data through a NIC driver.
type Conn struct {
	clk *cycles.Clock
	drv *driver.NICDriver
	p   Params

	txSinceReap int
	txSinceAck  int
	rxCoalescer *device.Coalescer
	// scratch is the payload source buffer. It is per-connection (not a
	// package global) so concurrent experiment cells share no mutable
	// state — each parallel worker's simulation world is fully isolated.
	scratch []byte

	// DataPackets counts transmitted data packets (the denominator of C).
	DataPackets uint64
	// RxPackets counts packets received and handed upstream.
	RxPackets uint64
}

// NewConn creates a connection over an initialized NIC driver. The Rx
// interrupt coalescer (§2.3) is configured from AckReapEvery: completions
// gather on the device until the threshold fires the interrupt that runs
// the reap-and-refill handler.
func NewConn(clk *cycles.Clock, drv *driver.NICDriver, p Params) *Conn {
	reap := p.AckReapEvery
	if reap <= 0 {
		reap = 1
	}
	return &Conn{clk: clk, drv: drv, p: p, rxCoalescer: device.NewCoalescer(reap, 0), scratch: make([]byte, 1<<14)}
}

// Params returns the connection's cost parameters.
func (c *Conn) Params() Params { return c.p }

// SendMessage segments a message of size bytes into MSS packets and
// transmits them, generating ack return traffic and processing completion
// bursts along the way.
func (c *Conn) SendMessage(size int) error {
	for size > 0 {
		n := c.p.MSS
		if n > size {
			n = size
		}
		if err := c.sendPacket(n); err != nil {
			return err
		}
		size -= n
	}
	return nil
}

// SendPacket transmits a single data packet of n payload bytes (callers
// stepping one packet at a time, e.g. the multicore scheduler's per-core
// quanta; n is clamped to MSS). Completion bursts and ack return traffic
// fire exactly as they would inside SendMessage.
func (c *Conn) SendPacket(n int) error {
	if n > c.p.MSS {
		n = c.p.MSS
	}
	return c.sendPacket(n)
}

func (c *Conn) sendPacket(n int) error {
	c.clk.Charge(cycles.Stack, c.p.StackCyclesPerPacket)
	if err := c.drv.Send(c.scratch[:n]); err != nil {
		return err
	}
	c.DataPackets++

	c.txSinceReap++
	if c.txSinceReap >= c.p.TxBurst {
		if err := c.reapTx(); err != nil {
			return err
		}
	}

	c.txSinceAck++
	if c.p.AckEvery > 0 && c.txSinceAck >= c.p.AckEvery {
		c.txSinceAck = 0
		if err := c.drv.Deliver(c.scratch[:c.p.AckBytes]); err != nil {
			return err
		}
		if c.rxCoalescer.Event(c.clk.Now()) {
			// The coalesced Rx interrupt: reap (unmap burst) and refill.
			if _, err := c.drv.ReapRx(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Conn) reapTx() error {
	c.txSinceReap = 0
	if _, err := c.drv.PumpTx(c.p.TxBurst); err != nil {
		return err
	}
	if _, err := c.drv.ReapTx(); err != nil {
		return err
	}
	return nil
}

// Receive models an inbound packet: the frame arrives by DMA, the Rx
// interrupt handler runs (unmap burst + refill), and the stack processes it.
// It returns the number of packets the handler received.
func (c *Conn) Receive(frame []byte) (int, error) {
	c.clk.Charge(cycles.Stack, c.p.StackCyclesPerPacket)
	if err := c.drv.Deliver(frame); err != nil {
		return 0, err
	}
	n, err := c.drv.ReapRx()
	if err != nil {
		return 0, err
	}
	c.RxPackets += uint64(n)
	return n, nil
}

// Flush drains all outstanding Tx completions and pending ack reaps.
func (c *Conn) Flush() error {
	if err := c.reapTx(); err != nil {
		return err
	}
	if c.rxCoalescer.Pending() > 0 {
		// Drain like a timeout-triggered interrupt.
		c.rxCoalescer.Poll(c.clk.Now() + ^uint64(0)>>1)
		if _, err := c.drv.ReapRx(); err != nil {
			return err
		}
	}
	return nil
}
