package experiments

import (
	"fmt"
	"strings"

	"riommu/internal/device"
	"riommu/internal/parallel"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// BenchKey identifies one benchmark on one NIC.
type BenchKey struct {
	Bench string
	NIC   string
}

// Figure12Result holds every cell of Figure 12: throughput and CPU per
// benchmark per NIC per mode.
type Figure12Result struct {
	NICs    []device.NICProfile
	Benches []string
	Modes   []sim.Mode
	Matrix  map[BenchKey]map[sim.Mode]workload.Result
}

// RunFigure12 measures all five benchmarks on both NIC profiles in all
// seven modes. The full nic x benchmark x mode matrix is flattened into
// one cell grid; every cell builds its own simulated system.
func RunFigure12(cfg Config) (Figure12Result, error) {
	res := Figure12Result{
		NICs:    []device.NICProfile{device.ProfileMLX, device.ProfileBRCM},
		Benches: []string{"stream", "rr", "apache-1M", "apache-1K", "memcached"},
		Modes:   sim.AllModes(),
		Matrix:  map[BenchKey]map[sim.Mode]workload.Result{},
	}
	q := cfg.Quality
	streamOpts := workload.StreamOpts{Messages: q.scale(100, 300), WarmupMessages: q.scale(50, 120)}
	rrOpts := workload.RROpts{Transactions: q.scale(300, 1500), Warmup: q.scale(80, 300)}
	ap1M := workload.ApacheOpts{FileBytes: 1 << 20, Requests: q.scale(6, 20), Warmup: 2}
	ap1K := workload.ApacheOpts{FileBytes: 1024, Requests: q.scale(100, 300), Warmup: q.scale(30, 80)}
	memOpts := workload.MemcachedOpts{Operations: q.scale(400, 1500), Warmup: q.scale(120, 400)}

	runCell := func(nic device.NICProfile, bench string, m sim.Mode) (workload.Result, error) {
		switch bench {
		case "stream":
			return netperfStream(cfg, m, nic, streamOpts)
		case "rr":
			return netperfRR(cfg, m, nic, rrOpts)
		case "apache-1M":
			return apache(cfg, m, nic, ap1M)
		case "apache-1K":
			return apache(cfg, m, nic, ap1K)
		case "memcached":
			return memcached(cfg, m, nic, memOpts)
		}
		return workload.Result{}, fmt.Errorf("unknown benchmark %q", bench)
	}

	type gridKey struct {
		nic   device.NICProfile
		bench string
		mode  sim.Mode
	}
	var grid []gridKey
	for _, nic := range res.NICs {
		for _, bench := range res.Benches {
			for _, m := range res.Modes {
				grid = append(grid, gridKey{nic: nic, bench: bench, mode: m})
			}
		}
	}
	cells, err := parallel.Map(cfg.Workers, grid, func(_ int, k gridKey) (workload.Result, error) {
		r, err := runCell(k.nic, k.bench, k.mode)
		if err != nil {
			return r, fmt.Errorf("%s/%s/%s: %w", k.nic.Name, k.bench, k.mode, err)
		}
		return r, nil
	})
	if err != nil {
		return res, err
	}
	for i, k := range grid {
		key := BenchKey{Bench: k.bench, NIC: k.nic.Name}
		if res.Matrix[key] == nil {
			res.Matrix[key] = map[sim.Mode]workload.Result{}
		}
		res.Matrix[key][k.mode] = cells[i]
	}
	return res, nil
}

// cellMetrics emits one Figure 12 matrix point's metrics.
func cellMetrics(r workload.Result) map[string]float64 {
	return map[string]float64{
		"throughput":      r.Throughput,
		"cpu":             r.CPU,
		"cycles_per_unit": r.CyclesPerUnit,
		"latency_us":      r.LatencyMicros,
		"units":           float64(r.Units),
	}
}

// Cells emits the full matrix in grid order.
func (r Figure12Result) Cells() []Cell {
	var out []Cell
	for _, nic := range r.NICs {
		for _, bench := range r.Benches {
			cells := r.Matrix[BenchKey{Bench: bench, NIC: nic.Name}]
			for _, m := range r.Modes {
				out = append(out, C("figure12", nic.Name+"/"+bench+"/"+m.String(), cellMetrics(cells[m])))
			}
		}
	}
	return out
}

// Render prints one table per NIC with throughput and CPU per benchmark.
func (r Figure12Result) Render() string {
	var b strings.Builder
	for _, nic := range r.NICs {
		t := stats.NewTable(
			fmt.Sprintf("Figure 12 (%s). Throughput and CPU consumption per mode", nic.Name),
			"benchmark", "unit", "metric", "strict", "strict+", "defer", "defer+", "riommu-", "riommu", "none")
		t.AlignLeft(1).AlignLeft(2)
		for _, bench := range r.Benches {
			cells := r.Matrix[BenchKey{Bench: bench, NIC: nic.Name}]
			tput := []string{bench, cells[sim.None].Unit, "tput"}
			cpu := []string{"", "%", "cpu"}
			for _, m := range r.Modes {
				tput = append(tput, fmt.Sprintf("%.4g", cells[m].Throughput))
				cpu = append(cpu, fmt.Sprintf("%.0f", cells[m].CPU*100))
			}
			t.RowStrings(tput)
			t.RowStrings(cpu)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "figure12",
		Title: "Figure 12: throughput and CPU for all benchmarks, modes and NICs",
		Paper: "mlx/stream: riommu 0.77x none, 7.56x strict; brcm: all modes but strict saturate 10GbE; rr/apache-1K/memcached per §5.2",
		Run:   wrap(RunFigure12),
	})
}
