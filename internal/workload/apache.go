package workload

import (
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/netstack"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
)

// ApacheOpts configures an Apache/ApacheBench run (§5.1): ApacheBench
// issues 32 concurrent requests for a static file of a given size over
// fresh TCP connections.
type ApacheOpts struct {
	FileBytes int // 1 KB or 1 MB in the paper
	Requests  int
	Warmup    int
}

func (o *ApacheOpts) defaults() {
	if o.FileBytes == 0 {
		o.FileBytes = 1024
	}
	if o.Requests == 0 {
		o.Requests = 300
		if o.FileBytes >= 1<<20 {
			o.Requests = 8 // 1 MB requests are ~700 packets each
		}
	}
	if o.Warmup == 0 {
		o.Warmup = o.Requests / 4
	}
}

// apacheAppCycles is the per-request HTTP processing cost: connection
// accept, parsing, logging, file lookup, syscalls. Calibrated so that the
// none-mode 1 KB rate lands near the paper's ~12K requests/second (§5.2
// observes both NICs deliver ≈12K req/s because this computation, not the
// network, is the bottleneck).
const apacheAppCycles = 215_000

// apacheCtrlFrames is the per-request connection-handling traffic
// (SYN, ACK, FIN exchanges plus the GET itself) — small frames received and
// sent around the response data.
const (
	apacheCtrlRx = 3 // SYN, GET, FIN-ACK
	apacheCtrlTx = 2 // SYN-ACK, FIN
)

// Apache measures the server side of ApacheBench: requests/second for a
// static file of the configured size.
func Apache(mode sim.Mode, profile device.NICProfile, opts ApacheOpts) (Result, error) {
	opts.defaults()
	sys, fx, err := newSystemWithNIC(mode, profile)
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	params := netstack.DefaultParams(profile)
	// 32 concurrent connections: completion work is still burst-coalesced,
	// though less deeply than a single saturating stream.
	params.TxBurst = 64
	conn := netstack.NewConn(sys.CPU, fx.drv, params)
	ctrl := make([]byte, 80)

	request := func() error {
		sys.CPU.Charge(cycles.App, apacheAppCycles)
		for i := 0; i < apacheCtrlRx; i++ {
			if _, err := conn.Receive(ctrl); err != nil {
				return err
			}
		}
		for i := 0; i < apacheCtrlTx; i++ {
			if err := conn.SendMessage(len(ctrl)); err != nil {
				return err
			}
		}
		// Response: headers + file body.
		return conn.SendMessage(300 + opts.FileBytes)
	}

	for i := 0; i < opts.Warmup; i++ {
		if err := request(); err != nil {
			return Result{}, err
		}
	}
	if err := conn.Flush(); err != nil {
		return Result{}, err
	}
	sys.ResetClocks()
	for i := 0; i < opts.Requests; i++ {
		if err := request(); err != nil {
			return Result{}, err
		}
	}
	if err := conn.Flush(); err != nil {
		return Result{}, err
	}

	cPerReq := float64(sys.CPU.Now()) / float64(opts.Requests)
	// Line-rate cap in requests/second for the response bytes.
	bytesPerReq := float64(opts.FileBytes + 300 + (apacheCtrlRx+apacheCtrlTx)*len(ctrl))
	lineReqs := profile.LineRateGbps * 1e9 / 8 / bytesPerReq
	rate := perfmodel.RatePerSecond(sys.Model, cPerReq, lineReqs)
	res := Result{
		Benchmark:     benchName("apache", opts.FileBytes),
		NIC:           profile.Name,
		Mode:          mode,
		Throughput:    rate,
		Unit:          "req/s",
		CPU:           perfmodel.CPUUtil(sys.Model, cPerReq, rate),
		CyclesPerUnit: cPerReq,
		Breakdown:     sys.CPU.Snapshot(),
		Units:         uint64(opts.Requests),
	}
	if err := sys.CheckLive(NICBDF, fx.drv.Live()); err != nil {
		return Result{}, err
	}
	return res, nil
}

func benchName(base string, fileBytes int) string {
	if fileBytes >= 1<<20 {
		return base + "-1M"
	}
	return base + "-1K"
}
