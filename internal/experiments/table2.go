package experiments

import (
	"fmt"
	"strings"

	"riommu/internal/sim"
	"riommu/internal/stats"
)

// Table2Paper records the paper's normalized throughput ratios (riommu
// divided by each mode) for spot comparison in tests and EXPERIMENTS.md.
var Table2Paper = map[BenchKey]map[sim.Mode]float64{
	{Bench: "stream", NIC: "mlx"}:     {sim.Strict: 7.56, sim.StrictPlus: 4.28, sim.Defer: 3.79, sim.DeferPlus: 2.57, sim.None: 0.77},
	{Bench: "rr", NIC: "mlx"}:         {sim.Strict: 1.25, sim.StrictPlus: 1.09, sim.Defer: 1.07, sim.DeferPlus: 1.03, sim.None: 0.96},
	{Bench: "apache-1M", NIC: "mlx"}:  {sim.Strict: 5.80, sim.StrictPlus: 1.77, sim.Defer: 1.73, sim.DeferPlus: 1.31, sim.None: 0.83},
	{Bench: "apache-1K", NIC: "mlx"}:  {sim.Strict: 2.32, sim.StrictPlus: 1.08, sim.Defer: 1.07, sim.DeferPlus: 1.03, sim.None: 0.92},
	{Bench: "memcached", NIC: "mlx"}:  {sim.Strict: 4.88, sim.StrictPlus: 1.19, sim.Defer: 1.28, sim.DeferPlus: 1.05, sim.None: 0.83},
	{Bench: "stream", NIC: "brcm"}:    {sim.Strict: 2.17, sim.StrictPlus: 1.00, sim.Defer: 1.00, sim.DeferPlus: 1.00, sim.None: 1.00},
	{Bench: "rr", NIC: "brcm"}:        {sim.Strict: 1.21, sim.StrictPlus: 1.06, sim.Defer: 1.05, sim.DeferPlus: 1.03, sim.None: 1.00},
	{Bench: "apache-1M", NIC: "brcm"}: {sim.Strict: 1.20, sim.StrictPlus: 1.01, sim.Defer: 1.00, sim.DeferPlus: 1.00, sim.None: 1.00},
	{Bench: "apache-1K", NIC: "brcm"}: {sim.Strict: 1.29, sim.StrictPlus: 1.18, sim.Defer: 1.13, sim.DeferPlus: 1.07, sim.None: 0.93},
	{Bench: "memcached", NIC: "brcm"}: {sim.Strict: 1.88, sim.StrictPlus: 1.45, sim.Defer: 1.27, sim.DeferPlus: 1.18, sim.None: 0.84},
}

// Table2Result holds the normalized ratios derived from Figure 12.
type Table2Result struct {
	Fig Figure12Result
}

// RunTable2 derives Table 2 from a Figure 12 run (which fans the benchmark
// matrix across cfg.Workers). When figure12 ran earlier in the same RunAll
// call, every one of its 70 cells comes from that call's cell memo and
// Table 2 builds no world of its own; run alone, it computes them.
func RunTable2(cfg Config) (Table2Result, error) {
	fig, err := RunFigure12(cfg)
	return Table2Result{Fig: fig}, err
}

// Cells emits the normalized ratios for both rIOMMU variants against every
// baseline mode.
func (r Table2Result) Cells() []Cell {
	var out []Cell
	for _, variant := range []sim.Mode{sim.RIOMMUMinus, sim.RIOMMU} {
		for _, nic := range nics {
			for _, bench := range figure12Benches {
				key := BenchKey{Bench: bench, NIC: nic.Name}
				for _, vs := range table2Baselines {
					id := variant.String() + "/" + nic.Name + "/" + bench + "/vs-" + vs.String()
					out = append(out, C("table2", id, map[string]float64{
						"tput_ratio": r.ThroughputRatio(key, variant, vs),
						"cpu_ratio":  r.CPURatio(key, variant, vs),
					}))
				}
			}
		}
	}
	return out
}

// table2Baselines are the modes Table 2 divides rIOMMU by, in column order.
var table2Baselines = []sim.Mode{sim.Strict, sim.StrictPlus, sim.Defer, sim.DeferPlus, sim.None}

// ThroughputRatio returns measured riommuVariant/mode throughput.
func (r Table2Result) ThroughputRatio(key BenchKey, variant, vs sim.Mode) float64 {
	base := r.Fig.At(Figure12Key{key, vs}).Throughput
	if base == 0 {
		return 0
	}
	return r.Fig.At(Figure12Key{key, variant}).Throughput / base
}

// CPURatio returns measured riommuVariant/mode CPU consumption.
func (r Table2Result) CPURatio(key BenchKey, variant, vs sim.Mode) float64 {
	base := r.Fig.At(Figure12Key{key, vs}).CPU
	if base == 0 {
		return 0
	}
	return r.Fig.At(Figure12Key{key, variant}).CPU / base
}

// Render prints the normalized table, paper values in parentheses for the
// riommu column.
func (r Table2Result) Render() string {
	var b strings.Builder
	for _, variant := range []sim.Mode{sim.RIOMMUMinus, sim.RIOMMU} {
		t := stats.NewTable(
			fmt.Sprintf("Table 2 (%s divided by). Normalized throughput / cpu; riommu row shows (paper) alongside", variant),
			"nic", "benchmark", "metric", "strict", "strict+", "defer", "defer+", "none")
		t.AlignLeft(1).AlignLeft(2)
		for _, nic := range nics {
			for _, bench := range figure12Benches {
				key := BenchKey{Bench: bench, NIC: nic.Name}
				tput := []string{nic.Name, bench, "tput"}
				cpu := []string{"", "", "cpu"}
				for _, vs := range table2Baselines {
					cell := fmt.Sprintf("%.2f", r.ThroughputRatio(key, variant, vs))
					if variant == sim.RIOMMU {
						if p, ok := Table2Paper[key][vs]; ok {
							cell += fmt.Sprintf(" (%.2f)", p)
						}
					}
					tput = append(tput, cell)
					cpu = append(cpu, fmt.Sprintf("%.2f", r.CPURatio(key, variant, vs)))
				}
				t.RowStrings(tput)
				t.RowStrings(cpu)
			}
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
