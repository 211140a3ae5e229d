package experiments

import (
	"fmt"

	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// Table3Paper records the paper's RR round-trip times in microseconds.
var Table3Paper = map[string]map[sim.Mode]float64{
	"mlx": {
		sim.Strict: 17.3, sim.StrictPlus: 15.1, sim.Defer: 14.9, sim.DeferPlus: 14.4,
		sim.RIOMMUMinus: 14.1, sim.RIOMMU: 13.9, sim.None: 13.4,
	},
	"brcm": {
		sim.Strict: 41.9, sim.StrictPlus: 36.7, sim.Defer: 36.6, sim.DeferPlus: 35.8,
		sim.RIOMMUMinus: 35.1, sim.RIOMMU: 34.7, sim.None: 34.6,
	},
}

// Table3Key identifies one Table 3 cell: a NIC in one mode.
type Table3Key struct {
	NIC  string
	Mode sim.Mode
}

// Table3Result holds measured RTTs in microseconds per NIC per mode.
type Table3Result struct {
	Grid[Table3Key, float64]
}

// RunTable3 measures Netperf RR round-trip times for both NICs; the
// nic x mode grid is one cell per point.
func RunTable3(cfg Config) (Table3Result, error) {
	opts := workload.RROpts{Transactions: cfg.Quality.scale(400, 2000), Warmup: cfg.Quality.scale(100, 300)}
	var keys []Table3Key
	for _, nic := range nics {
		for _, m := range sim.AllModes() {
			keys = append(keys, Table3Key{NIC: nic.Name, Mode: m})
		}
	}
	g, err := runGrid(cfg, keys, func(k Table3Key) (float64, error) {
		r, err := workload.NetperfRR(k.Mode, nicProfile(k.NIC), opts)
		return r.LatencyMicros, err
	})
	return Table3Result{g}, err
}

// Cells emits the per-nic per-mode round-trip times.
func (r Table3Result) Cells() []Cell {
	return r.cells("table3", func(k Table3Key, rtt float64) (string, map[string]float64) {
		return k.NIC + "/" + k.Mode.String(), map[string]float64{"rtt_us": rtt}
	})
}

// Render prints the paper-style RTT table with paper values alongside.
func (r Table3Result) Render() string {
	t := stats.NewTable(
		"Table 3. Netperf RR round-trip time in microseconds (measured | paper)",
		"nic", "strict", "strict+", "defer", "defer+", "riommu-", "riommu", "none")
	for _, nic := range nics {
		row := []string{nic.Name}
		for _, m := range sim.AllModes() {
			row = append(row, fmt.Sprintf("%.1f | %.1f", r.At(Table3Key{nic.Name, m}), Table3Paper[nic.Name][m]))
		}
		t.RowStrings(row)
	}
	return t.String()
}
