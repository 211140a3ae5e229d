// Package workload implements the paper's benchmarks (§5.1) over the
// simulated systems: Netperf TCP stream, Netperf UDP request-response,
// Apache/ApacheBench with 1 KB and 1 MB files, Memcached/Memslap, and
// Bonnie++ over a SATA disk. Each workload drives the full stack — netstack
// costs, driver map/unmap, rings, translation hardware, device DMA — and
// converts the resulting cycles-per-unit into throughput, CPU utilization
// and latency through the validated performance model (§3.3).
package workload

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

// NICBDF is the PCI identity the workloads give their NIC.
var NICBDF = pci.NewBDF(0, 3, 0)

// MemPages is the simulated physical memory size used by the workloads.
const MemPages = 1 << 15 // 128 MiB

// Result is one benchmark measurement in one mode.
type Result struct {
	Benchmark string
	NIC       string
	Mode      sim.Mode

	// Throughput in Unit-dependent terms: Gbps for stream, transactions/s
	// for RR, requests/s for Apache, operations/s for Memcached, MB/s for
	// Bonnie.
	Throughput float64
	Unit       string

	// CPU is core utilization in [0,1].
	CPU float64

	// CyclesPerUnit is C: CPU cycles per packet (stream) or per
	// transaction/request/operation.
	CyclesPerUnit float64

	// LatencyMicros is the round-trip time (RR only).
	LatencyMicros float64

	// Breakdown holds the per-component cycle accounting for the measured
	// interval (Figure 7's stacked bars).
	Breakdown cycles.Snapshot
	// Units is the number of packets/transactions measured.
	Units uint64

	// MaxAllocVisits is the longest single IOVA-allocator gap-search walk
	// observed (Linux allocator modes only; 0 otherwise). Exposes the
	// §3.2 pathology for the pathology experiment.
	MaxAllocVisits uint64
}

// String renders a one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("%-10s %-5s %-8s %10.2f %s  cpu=%3.0f%%  C=%.0f",
		r.Benchmark, r.NIC, r.Mode, r.Throughput, r.Unit, r.CPU*100, r.CyclesPerUnit)
	if r.LatencyMicros > 0 {
		s += fmt.Sprintf("  rtt=%.1fus", r.LatencyMicros)
	}
	return s
}

// newSystemWithNIC builds the system + NIC + netstack fixture shared by the
// networking workloads. It is a variable so that leak tests can build the
// NIC over a protection that loses an unmap.
var newSystemWithNIC = func(mode sim.Mode, profile device.NICProfile) (*sim.System, *nicFixture, error) {
	sys, err := sim.New(sim.Spec{Mode: mode, MemPages: MemPages, Model: sim.ProfileModel(profile)})
	if err != nil {
		return nil, nil, err
	}
	drv, nic, err := sys.AttachNIC(profile, NICBDF)
	if err != nil {
		return nil, nil, err
	}
	return sys, &nicFixture{drv: drv, nic: nic}, nil
}

type nicFixture struct {
	drv *driver.NICDriver
	nic *device.NIC
}
