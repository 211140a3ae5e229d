package workload

import (
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/netstack"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
)

// MemcachedOpts configures a Memslap-style run (§5.1): 90% get / 10% set,
// 64-byte keys, 1 KB values, 32 concurrent requests.
type MemcachedOpts struct {
	Operations int
	Warmup     int
	GetPercent int
}

func (o *MemcachedOpts) defaults() {
	if o.Operations == 0 {
		o.Operations = 2000
	}
	if o.Warmup == 0 {
		o.Warmup = 300
	}
	if o.GetPercent == 0 {
		o.GetPercent = 90
	}
}

// memcachedAppCycles is the per-operation server cost: protocol parse and
// an in-memory LRU hash operation. An order of magnitude lighter than
// Apache's per-request processing, which is why Memcached reaches ~10× the
// Apache 1KB rate (§5.2).
const memcachedAppCycles = 17_000

const (
	memKeyBytes   = 64
	memValueBytes = 1024
)

// Memcached measures the server side of Memslap: operations/second.
func Memcached(mode sim.Mode, profile device.NICProfile, opts MemcachedOpts) (Result, error) {
	opts.defaults()
	sys, fx, err := newSystemWithNIC(mode, profile)
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	params := netstack.DefaultParams(profile)
	params.TxBurst = 64 // 32 concurrent clients coalesce completions
	conn := netstack.NewConn(sys.CPU, fx.drv, params)
	// Every request is all zeros: a get delivers its key, a set its key and
	// value. Delivery only reads the frame, so one buffer serves them all.
	req := make([]byte, memKeyBytes+memValueBytes)

	op := func(i int) error {
		sys.CPU.Charge(cycles.App, memcachedAppCycles)
		isGet := i%10 < opts.GetPercent/10
		if isGet {
			// get: key arrives, value goes out.
			if _, err := conn.Receive(req[:memKeyBytes]); err != nil {
				return err
			}
			return conn.SendMessage(memValueBytes)
		}
		// set: key+value arrive, short ack goes out.
		if _, err := conn.Receive(req); err != nil {
			return err
		}
		return conn.SendMessage(16)
	}

	for i := 0; i < opts.Warmup; i++ {
		if err := op(i); err != nil {
			return Result{}, err
		}
	}
	if err := conn.Flush(); err != nil {
		return Result{}, err
	}
	sys.ResetClocks()
	for i := 0; i < opts.Operations; i++ {
		if err := op(i); err != nil {
			return Result{}, err
		}
	}
	if err := conn.Flush(); err != nil {
		return Result{}, err
	}

	cPerOp := float64(sys.CPU.Now()) / float64(opts.Operations)
	bytesPerOp := float64(memKeyBytes + memValueBytes)
	lineOps := profile.LineRateGbps * 1e9 / 8 / bytesPerOp
	rate := perfmodel.RatePerSecond(sys.Model, cPerOp, lineOps)
	res := Result{
		Benchmark:     "memcached",
		NIC:           profile.Name,
		Mode:          mode,
		Throughput:    rate,
		Unit:          "ops/s",
		CPU:           perfmodel.CPUUtil(sys.Model, cPerOp, rate),
		CyclesPerUnit: cPerOp,
		Breakdown:     sys.CPU.Snapshot(),
		Units:         uint64(opts.Operations),
	}
	if err := sys.CheckLive(NICBDF, fx.drv.Live()); err != nil {
		return Result{}, err
	}
	return res, nil
}
