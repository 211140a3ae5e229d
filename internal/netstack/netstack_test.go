package netstack

import (
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

func newConn(t *testing.T, p Params) (*Conn, *cycles.Clock, *driver.NICDriver) {
	t.Helper()
	mm := mustMem(t, 1<<14*mem.PageSize)
	eng := dma.NewEngine(mm, iommu.Identity{})
	drv, _, err := driver.NewNICDriver(mm, driver.NoProtection{}, eng, device.ProfileBRCM, pci.NewBDF(0, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	clk := &cycles.Clock{}
	return NewConn(clk, drv, p), clk, drv
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(device.ProfileMLX)
	if p.StackCyclesPerPacket != 1816 {
		t.Errorf("mlx stack = %d, want the paper's C_none 1816", p.StackCyclesPerPacket)
	}
	if p.MSS != 1448 || p.TxBurst != 200 {
		t.Errorf("params = %+v", p)
	}
	b := DefaultParams(device.ProfileBRCM)
	if b.StackCyclesPerPacket >= p.StackCyclesPerPacket {
		t.Error("brcm stack cost should be below mlx")
	}
}

func TestSegmentation(t *testing.T) {
	p := DefaultParams(device.ProfileBRCM)
	p.AckEvery = 0 // no ack traffic for this test
	conn, clk, _ := newConn(t, p)

	// 16 KB = 11 full MSS packets + remainder = 12 packets.
	if err := conn.SendMessage(16 * 1024); err != nil {
		t.Fatal(err)
	}
	if conn.DataPackets != 12 {
		t.Errorf("DataPackets = %d, want 12", conn.DataPackets)
	}
	// Stack charged exactly once per packet.
	if got := clk.Total(cycles.Stack); got != 12*p.StackCyclesPerPacket {
		t.Errorf("stack cycles = %d, want %d", got, 12*p.StackCyclesPerPacket)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestTxBurstReaping(t *testing.T) {
	p := DefaultParams(device.ProfileBRCM)
	p.AckEvery = 0
	p.TxBurst = 16
	conn, _, drv := newConn(t, p)

	// 40 packets => two bursts reaped inside, 8 pending.
	for i := 0; i < 40; i++ {
		if err := conn.SendMessage(100); err != nil {
			t.Fatal(err)
		}
	}
	if drv.TxReaped != 32 {
		t.Errorf("TxReaped = %d, want 32 (two bursts of 16)", drv.TxReaped)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	if drv.TxReaped != 40 {
		t.Errorf("TxReaped after flush = %d", drv.TxReaped)
	}
}

func TestAckTraffic(t *testing.T) {
	p := DefaultParams(device.ProfileBRCM)
	p.AckEvery = 4
	p.AckReapEvery = 2
	conn, _, drv := newConn(t, p)

	for i := 0; i < 16; i++ { // 16 data packets => 4 acks => 2 rx reaps
		if err := conn.SendMessage(100); err != nil {
			t.Fatal(err)
		}
	}
	if got := drv.NIC().RxPackets; got != 4 {
		t.Errorf("acks delivered = %d, want 4", got)
	}
	if got := drv.RxReceived; got != 4 {
		t.Errorf("acks reaped = %d, want 4 (2 reaps of 2)", got)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestReceivePath(t *testing.T) {
	conn, clk, _ := newConn(t, DefaultParams(device.ProfileBRCM))
	n, err := conn.Receive([]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Receive reaped %d packets, want 1", n)
	}
	if conn.RxPackets != 1 {
		t.Errorf("RxPackets = %d", conn.RxPackets)
	}
	if clk.Total(cycles.Stack) == 0 {
		t.Error("receive did not charge stack cycles")
	}
}

func TestParamsAccessor(t *testing.T) {
	p := DefaultParams(device.ProfileMLX)
	conn, _, _ := newConn(t, p)
	if conn.Params().MSS != p.MSS {
		t.Error("Params accessor")
	}
}
