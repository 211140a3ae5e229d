package experiments

import (
	"fmt"
	"strings"

	"riommu/internal/device"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// nics are the paper's two NIC setups, in table order.
var nics = []device.NICProfile{device.ProfileMLX, device.ProfileBRCM}

// nicProfile returns the NIC setup called name: brcm, or mlx for any other
// name.
func nicProfile(name string) device.NICProfile {
	if name == device.ProfileBRCM.Name {
		return device.ProfileBRCM
	}
	return device.ProfileMLX
}

// BenchKey identifies one benchmark on one NIC.
type BenchKey struct {
	Bench string
	NIC   string
}

// Figure12Key identifies one Figure 12 cell: a benchmark on a NIC, in one
// mode.
type Figure12Key struct {
	BenchKey
	Mode sim.Mode
}

// String names the cell: nic/benchmark/mode.
func (k Figure12Key) String() string { return k.NIC + "/" + k.Bench + "/" + k.Mode.String() }

// figure12Benches are Figure 12's benchmarks, in panel order.
var figure12Benches = []string{"stream", "rr", "apache-1M", "apache-1K", "memcached"}

// Figure12Result holds every cell of Figure 12: throughput and CPU per
// benchmark per NIC per mode.
type Figure12Result struct {
	Grid[Figure12Key, workload.Result]
}

// RunFigure12 measures all five benchmarks on both NIC profiles in all
// seven modes. The full nic x benchmark x mode matrix is one cell grid;
// every cell builds its own simulated system.
func RunFigure12(cfg Config) (Figure12Result, error) {
	q := cfg.Quality
	streamOpts := workload.StreamOpts{Messages: q.scale(100, 300), WarmupMessages: q.scale(50, 120)}
	rrOpts := workload.RROpts{Transactions: q.scale(300, 1500), Warmup: q.scale(80, 300)}
	ap1M := workload.ApacheOpts{FileBytes: 1 << 20, Requests: q.scale(6, 20), Warmup: 2}
	ap1K := workload.ApacheOpts{FileBytes: 1024, Requests: q.scale(100, 300), Warmup: q.scale(30, 80)}
	memOpts := workload.MemcachedOpts{Operations: q.scale(400, 1500), Warmup: q.scale(120, 400)}

	var keys []Figure12Key
	for _, nic := range nics {
		for _, bench := range figure12Benches {
			for _, m := range sim.AllModes() {
				keys = append(keys, Figure12Key{BenchKey{Bench: bench, NIC: nic.Name}, m})
			}
		}
	}
	g, err := runGrid(cfg, keys, func(k Figure12Key) (r workload.Result, err error) {
		nic := nicProfile(k.NIC)
		switch k.Bench {
		case "stream":
			r, err = netperfStream(cfg, k.Mode, nic, streamOpts)
		case "rr":
			r, err = netperfRR(cfg, k.Mode, nic, rrOpts)
		case "apache-1M":
			r, err = apache(cfg, k.Mode, nic, ap1M)
		case "apache-1K":
			r, err = apache(cfg, k.Mode, nic, ap1K)
		case "memcached":
			r, err = memcached(cfg, k.Mode, nic, memOpts)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", k, err)
		}
		return r, err
	})
	return Figure12Result{g}, err
}

// Cells emits the full matrix in grid order.
func (r Figure12Result) Cells() []Cell {
	return r.cells("figure12", func(k Figure12Key, c workload.Result) (string, map[string]float64) {
		return k.String(), map[string]float64{
			"throughput":      c.Throughput,
			"cpu":             c.CPU,
			"cycles_per_unit": c.CyclesPerUnit,
			"latency_us":      c.LatencyMicros,
			"units":           float64(c.Units),
		}
	})
}

// Render prints one table per NIC with throughput and CPU per benchmark.
func (r Figure12Result) Render() string {
	var b strings.Builder
	for _, nic := range nics {
		t := stats.NewTable(
			fmt.Sprintf("Figure 12 (%s). Throughput and CPU consumption per mode", nic.Name),
			"benchmark", "unit", "metric", "strict", "strict+", "defer", "defer+", "riommu-", "riommu", "none")
		t.AlignLeft(1).AlignLeft(2)
		for _, bench := range figure12Benches {
			key := BenchKey{Bench: bench, NIC: nic.Name}
			tput := []string{bench, r.At(Figure12Key{key, sim.None}).Unit, "tput"}
			cpu := []string{"", "%", "cpu"}
			for _, m := range sim.AllModes() {
				c := r.At(Figure12Key{key, m})
				tput = append(tput, fmt.Sprintf("%.4g", c.Throughput))
				cpu = append(cpu, fmt.Sprintf("%.0f", c.CPU*100))
			}
			t.RowStrings(tput)
			t.RowStrings(cpu)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
