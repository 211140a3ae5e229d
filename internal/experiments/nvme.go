package experiments

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/driver"
	"riommu/internal/pci"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// NVMeResult is an *extension* experiment: §4 asserts rIOMMU applies to
// PCIe SSDs (NVMe's queues impose the same strict in-order discipline as
// NIC rings) but the paper does not evaluate one. We measure 4 KiB random
// I/O through the NVMe driver under every protection mode: the per-command
// CPU cost (map + submit + complete + unmap) bounds the achievable IOPS via
// the same validated cycles model, capped by the drive's rated IOPS.
type NVMeResult struct {
	Grid[sim.Mode, NVMePoint]
	// DriveKIOPS is the drive-side cap.
	DriveKIOPS float64
}

// NVMePoint is one mode's measured CPU cost per 4 KiB command and the
// throughput it allows, in thousands of IOPS.
type NVMePoint struct {
	CyclesPerOp, KIOPS float64
}

// nvmeDriveKIOPS models a high-end 2015 PCIe SSD (~750K 4 KiB IOPS).
const nvmeDriveKIOPS = 750.0

// nvmeStackCycles is the per-command block-layer cost (bio handling,
// completion, context switching) outside the IOMMU path.
const nvmeStackCycles = 900

// RunNVMe measures the per-command cost in each mode, one isolated world
// per mode cell.
func RunNVMe(cfg Config) (NVMeResult, error) {
	const depth = 32
	q := cfg.Quality
	ops := q.scale(1500, 6000)
	bdf := pci.NewBDF(0, 4, 0)

	g, err := runGrid(cfg, sim.AllModes(), func(m sim.Mode) (NVMePoint, error) {
		var cell NVMePoint
		sys, err := sim.New(sim.Spec{Mode: m, MemPages: workload.MemPages})
		if err != nil {
			return cell, err
		}
		defer sys.Close()
		prot, err := sys.ProtectionFor(bdf, []uint32{4, 4 * depth, 4 * depth})
		if err != nil {
			return cell, err
		}
		d, err := driver.NewNVMeDriver(sys.Mem, prot, sys.Eng, bdf, 4096, 1024, 256)
		if err != nil {
			return cell, err
		}
		run := func(n int) error {
			for i := 0; i < n; i += depth {
				for j := 0; j < depth; j++ {
					sys.CPU.Charge(cycles.App, nvmeStackCycles)
					if _, err := d.Read(uint64((i+j)%1024), 4096); err != nil {
						return err
					}
				}
				if _, err := d.Poll(depth); err != nil {
					return err
				}
			}
			return nil
		}
		if err := run(q.scale(300, 1000)); err != nil { // warmup
			return cell, err
		}
		sys.ResetClocks()
		if err := run(ops); err != nil {
			return cell, err
		}
		cell.CyclesPerOp = float64(sys.CPU.Now()) / float64(ops)
		cell.KIOPS = perfmodel.RatePerSecond(sys.Model, cell.CyclesPerOp, nvmeDriveKIOPS*1000) / 1000
		return cell, sys.CheckLive(bdf, d.Live())
	})
	return NVMeResult{Grid: g, DriveKIOPS: nvmeDriveKIOPS}, err
}

// Cells emits the per-mode IOPS points.
func (r NVMeResult) Cells() []Cell {
	return r.cells("nvme", func(m sim.Mode, p NVMePoint) (string, map[string]float64) {
		return m.String(), map[string]float64{
			"cycles_per_op": p.CyclesPerOp,
			"kiops":         p.KIOPS,
		}
	})
}

// Render prints the comparison.
func (r NVMeResult) Render() string {
	t := stats.NewTable(
		fmt.Sprintf("Extension. NVMe 4 KiB I/O under DMA protection (drive rated %.0fK IOPS, QD32)", r.DriveKIOPS),
		"mode", "cycles/op", "K IOPS", "vs drive cap")
	for i, m := range r.Keys {
		p := r.Results[i]
		t.Row(m.String(), p.CyclesPerOp, p.KIOPS, fmt.Sprintf("%.2fx", p.KIOPS/r.DriveKIOPS))
	}
	return t.String()
}
