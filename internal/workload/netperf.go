package workload

import (
	"riommu/internal/baseline"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/iova"
	"riommu/internal/netstack"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
)

// streamMessageBytes is Netperf's default message size (§5.1).
const streamMessageBytes = 16 * 1024

// StreamOpts configures a Netperf TCP stream run.
type StreamOpts struct {
	// Messages is the number of 16 KB messages to measure.
	Messages int
	// WarmupMessages run before the clocks reset, letting the IOVA
	// allocator and caches reach steady state.
	WarmupMessages int
	// ExtraCyclesPerPacket adds an artificial busy-wait to every packet,
	// used by the Figure 8 model-validation sweep (§3.3).
	ExtraCyclesPerPacket uint64

	// Ablation knobs (zero values mean defaults).
	TxBurst    int // completion burst length (default ~200)
	DeferBatch int // deferred-invalidation batch (default 250)
}

func (o *StreamOpts) defaults() {
	if o.Messages == 0 {
		o.Messages = 400
	}
	if o.WarmupMessages == 0 {
		o.WarmupMessages = 120
	}
}

// NetperfStream runs the TCP stream benchmark: it maximizes data sent over
// one connection and reports throughput (Gbps), CPU utilization, and C, the
// cycles per packet (the quantity Figures 7, 8 and 12 are built from).
func NetperfStream(mode sim.Mode, profile device.NICProfile, opts StreamOpts) (Result, error) {
	opts.defaults()
	sys, fx, err := newSystemWithNIC(mode, profile)
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	params := netstack.DefaultParams(profile)
	params.StackCyclesPerPacket += opts.ExtraCyclesPerPacket
	if opts.TxBurst > 0 {
		params.TxBurst = opts.TxBurst
	}
	if opts.DeferBatch > 0 {
		if bd, ok := sys.Protections[NICBDF].(*baseline.Driver); ok {
			bd.SetDeferBatch(opts.DeferBatch)
		}
	}
	conn := netstack.NewConn(sys.CPU, fx.drv, params)

	for i := 0; i < opts.WarmupMessages; i++ {
		if err := conn.SendMessage(streamMessageBytes); err != nil {
			return Result{}, err
		}
	}
	if err := conn.Flush(); err != nil {
		return Result{}, err
	}
	sys.ResetClocks()
	startPkts := conn.DataPackets

	for i := 0; i < opts.Messages; i++ {
		if err := conn.SendMessage(streamMessageBytes); err != nil {
			return Result{}, err
		}
	}
	if err := conn.Flush(); err != nil {
		return Result{}, err
	}

	pkts := conn.DataPackets - startPkts
	c := float64(sys.CPU.Now()) / float64(pkts)
	rate := perfmodel.PacketsPerSecond(sys.Model, c, profile.LineRateGbps)
	var maxWalk uint64
	if bd, ok := sys.Protections[NICBDF].(*baseline.Driver); ok {
		if la, ok := bd.Allocator().(*iova.LinuxAllocator); ok {
			maxWalk = la.MaxAllocVisits
		}
	}
	res := Result{
		Benchmark:      "stream",
		NIC:            profile.Name,
		Mode:           mode,
		Throughput:     rate * perfmodel.WireBytes * 8 / 1e9,
		Unit:           "Gbps",
		CPU:            perfmodel.CPUUtil(sys.Model, c, rate),
		CyclesPerUnit:  c,
		Breakdown:      sys.CPU.Snapshot(),
		Units:          pkts,
		MaxAllocVisits: maxWalk,
	}
	if err := sys.CheckLive(NICBDF, fx.drv.Live()); err != nil {
		return Result{}, err
	}
	return res, nil
}

// RROpts configures a Netperf UDP request-response run.
type RROpts struct {
	Transactions int
	Warmup       int
}

func (o *RROpts) defaults() {
	if o.Transactions == 0 {
		o.Transactions = 2000
	}
	if o.Warmup == 0 {
		o.Warmup = 200
	}
}

// rrBase holds the per-NIC latency calibration: the wire + peer + interrupt
// latency that is not the measured machine's CPU (calibrated so none-mode
// RTTs match Table 3: mlx 13.4 µs, brcm 34.6 µs) and the per-transaction
// protocol cost (calibrated from the RR CPU utilizations of Figure 12:
// ~28-30% on mlx, ~12-15% on brcm).
type rrBase struct {
	baseCycles  float64
	stackPerTxn uint64
}

func rrCalibration(p device.NICProfile) rrBase {
	if p.Name == "brcm" {
		// RTT_none = 34.6 µs = 106,260 cycles; CPU ≈ 13%.
		return rrBase{baseCycles: 79500, stackPerTxn: 13300}
	}
	// mlx: RTT_none = 13.4 µs = 41,540 cycles; CPU ≈ 29%.
	return rrBase{baseCycles: 17500, stackPerTxn: 12000}
}

// NetperfRR runs the UDP request-response benchmark: one-byte ping-pong,
// one transaction in flight. Since both machines of the paper's setup run
// the same mode, the round trip pays the per-transaction CPU cost twice.
// Latency sensitivity means completion bursts have length 1 — no
// invalidation amortization (§4).
func NetperfRR(mode sim.Mode, profile device.NICProfile, opts RROpts) (Result, error) {
	opts.defaults()
	sys, fx, err := newSystemWithNIC(mode, profile)
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	cal := rrCalibration(profile)
	request := make([]byte, 64) // 1-byte payload in a minimum frame

	txn := func() error {
		sys.CPU.Charge(cycles.Stack, cal.stackPerTxn)
		// Receive the request.
		if err := fx.drv.Deliver(request); err != nil {
			return err
		}
		if _, err := fx.drv.ReapRx(); err != nil {
			return err
		}
		// Send the one-byte response through the NIC's inline path (tiny
		// payloads ride inside the descriptor — ConnectX inline sends /
		// copybreak — so the transmit side needs no mapping); the burst is
		// a single packet.
		if err := fx.drv.SendInline([]byte{0x42}); err != nil {
			return err
		}
		if _, err := fx.drv.PumpTx(1); err != nil {
			return err
		}
		if _, err := fx.drv.ReapTx(); err != nil {
			return err
		}
		return nil
	}

	for i := 0; i < opts.Warmup; i++ {
		if err := txn(); err != nil {
			return Result{}, err
		}
	}
	sys.ResetClocks()
	for i := 0; i < opts.Transactions; i++ {
		if err := txn(); err != nil {
			return Result{}, err
		}
	}

	perTxn := float64(sys.CPU.Now()) / float64(opts.Transactions)
	rttCycles := cal.baseCycles + 2*perTxn
	rttMicros := sys.Model.Micros(uint64(rttCycles))
	res := Result{
		Benchmark:     "rr",
		NIC:           profile.Name,
		Mode:          mode,
		Throughput:    1e6 / rttMicros,
		Unit:          "txn/s",
		CPU:           perTxn / rttCycles,
		CyclesPerUnit: perTxn,
		LatencyMicros: rttMicros,
		Breakdown:     sys.CPU.Snapshot(),
		Units:         uint64(opts.Transactions),
	}
	if err := sys.CheckLive(NICBDF, fx.drv.Live()); err != nil {
		return Result{}, err
	}
	return res, nil
}
