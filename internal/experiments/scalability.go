package experiments

import (
	"fmt"
	"strings"

	"riommu/internal/multicore"
	"riommu/internal/sim"
	"riommu/internal/stats"
)

// ScaleKey identifies one scalability matrix point.
type ScaleKey struct {
	NIC   string
	Mode  sim.Mode
	Cores int
}

// ScalabilityResult holds Figure S1: aggregate throughput versus core count
// for every protection mode on both NIC profiles, under the multicore
// engine's contention model (internal/multicore).
type ScalabilityResult struct {
	Grid[ScaleKey, multicore.Result]
}

// ScalabilityCores is the swept core counts of Figure S1.
var ScalabilityCores = []int{1, 2, 4, 8, 16}

// RunScalability sweeps cores x modes x NICs through the K-core engine: each
// cell is one deterministic scale-out run where every core drives its own
// MQNIC queue pair and the baseline modes serialize on the contended shared
// allocator + invalidation queue (default lock calibration).
func RunScalability(cfg Config) (ScalabilityResult, error) {
	q := cfg.Quality
	packets, warmup := q.scale(160, 800), q.scale(60, 240)

	var keys []ScaleKey
	for _, nic := range nics {
		for _, m := range sim.AllModes() {
			for _, cores := range ScalabilityCores {
				keys = append(keys, ScaleKey{NIC: nic.Name, Mode: m, Cores: cores})
			}
		}
	}
	g, err := runGrid(cfg, keys, func(k ScaleKey) (multicore.Result, error) {
		r, err := runMulticore(cfg, multicore.Params{
			Mode:           k.Mode,
			Profile:        nicProfile(k.NIC),
			Cores:          k.Cores,
			PacketsPerCore: packets,
			WarmupPerCore:  warmup,
		})
		if err != nil {
			return r, fmt.Errorf("%s/%s/cores=%d: %w", k.NIC, k.Mode, k.Cores, err)
		}
		return r, nil
	})
	return ScalabilityResult{g}, err
}

// lockWaitFrac is the share of a run's core cycles spent waiting on the
// shared-structure lock.
func lockWaitFrac(c multicore.Result) float64 {
	var cyc uint64
	for _, pc := range c.PerCore {
		cyc += pc.Cycles
	}
	if cyc == 0 {
		return 0
	}
	return float64(c.Lock.WaitCycles) / float64(cyc)
}

// Cells emits the matrix in grid order.
func (r ScalabilityResult) Cells() []Cell {
	return r.cells("scalability", func(k ScaleKey, c multicore.Result) (string, map[string]float64) {
		return fmt.Sprintf("%s/%s/cores=%d", k.NIC, k.Mode, k.Cores), map[string]float64{
			"agg_gbps":       c.AggGbps,
			"cycles_per_pkt": c.MeanCyclesPerPacket,
			"lock_acq":       float64(c.Lock.Acquisitions),
			"lock_contended": float64(c.Lock.Contended),
			"lock_wait_frac": lockWaitFrac(c),
		}
	})
}

// Render prints one aggregate-Gbps table per NIC (modes x cores) plus the
// baseline modes' lock-contention profile.
func (r ScalabilityResult) Render() string {
	var b strings.Builder
	for _, nic := range nics {
		header := []string{"mode"}
		for _, cores := range ScalabilityCores {
			header = append(header, fmt.Sprintf("%d cores", cores))
		}
		header = append(header, "16c vs 1c")
		t := stats.NewTable(
			fmt.Sprintf("Figure S1 (%s). Aggregate Gbps vs cores (line rate %g Gbps)", nic.Name, nic.LineRateGbps),
			header...)
		t.AlignLeft(0)
		for _, m := range sim.AllModes() {
			row := []string{m.String()}
			var first, last float64
			for i, cores := range ScalabilityCores {
				c := r.At(ScaleKey{NIC: nic.Name, Mode: m, Cores: cores})
				if i == 0 {
					first = c.AggGbps
				}
				last = c.AggGbps
				row = append(row, fmt.Sprintf("%.2f", c.AggGbps))
			}
			row = append(row, stats.Ratio(last, first)+"x")
			t.RowStrings(row)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}

	ct := stats.NewTable(
		"Shared-structure lock profile (contended modes, 16 cores)",
		"nic", "mode", "acquisitions", "contended", "wait frac")
	ct.AlignLeft(0).AlignLeft(1)
	for _, nic := range nics {
		for _, m := range sim.AllModes() {
			if !multicore.ContendedMode(m) {
				continue
			}
			c := r.At(ScaleKey{NIC: nic.Name, Mode: m, Cores: 16})
			ct.Row(nic.Name, m.String(), c.Lock.Acquisitions, c.Lock.Contended,
				fmt.Sprintf("%.1f%%", 100*lockWaitFrac(c)))
		}
	}
	b.WriteString(ct.String())
	return b.String()
}
