package experiments

import (
	"fmt"
	"strings"

	"riommu/internal/device"
	"riommu/internal/multicore"
	"riommu/internal/parallel"
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
	NICs   []device.NICProfile
	Modes  []sim.Mode
	Cores  []int
	Matrix map[ScaleKey]multicore.Result
}

// ScalabilityCores is the swept core counts of Figure S1.
var ScalabilityCores = []int{1, 2, 4, 8, 16}

// RunScalability sweeps cores x modes x NICs through the K-core engine: each
// cell is one deterministic scale-out run where every core drives its own
// MQNIC queue pair and the baseline modes serialize on the contended shared
// allocator + invalidation queue (default lock calibration).
func RunScalability(cfg Config) (ScalabilityResult, error) {
	res := ScalabilityResult{
		NICs:   []device.NICProfile{device.ProfileMLX, device.ProfileBRCM},
		Modes:  sim.AllModes(),
		Cores:  ScalabilityCores,
		Matrix: map[ScaleKey]multicore.Result{},
	}
	q := cfg.Quality
	packets, warmup := q.scale(160, 800), q.scale(60, 240)

	var grid []ScaleKey
	for _, nic := range res.NICs {
		for _, m := range res.Modes {
			for _, cores := range res.Cores {
				grid = append(grid, ScaleKey{NIC: nic.Name, Mode: m, Cores: cores})
			}
		}
	}
	profile := func(name string) device.NICProfile {
		if name == device.ProfileBRCM.Name {
			return device.ProfileBRCM
		}
		return device.ProfileMLX
	}
	cells, err := parallel.Map(cfg.Workers, grid, func(_ int, k ScaleKey) (multicore.Result, error) {
		r, err := runMulticore(cfg, multicore.Params{
			Mode:           k.Mode,
			Profile:        profile(k.NIC),
			Cores:          k.Cores,
			PacketsPerCore: packets,
			WarmupPerCore:  warmup,
		})
		if err != nil {
			return r, fmt.Errorf("%s/%s/cores=%d: %w", k.NIC, k.Mode, k.Cores, err)
		}
		return r, nil
	})
	if err != nil {
		return res, err
	}
	for i, k := range grid {
		res.Matrix[k] = cells[i]
	}
	return res, nil
}

// Cells emits the matrix in grid order.
func (r ScalabilityResult) Cells() []Cell {
	var out []Cell
	for _, nic := range r.NICs {
		for _, m := range r.Modes {
			for _, cores := range r.Cores {
				c := r.Matrix[ScaleKey{NIC: nic.Name, Mode: m, Cores: cores}]
				var cyc uint64
				for _, pc := range c.PerCore {
					cyc += pc.Cycles
				}
				waitFrac := 0.0
				if cyc > 0 {
					waitFrac = float64(c.Lock.WaitCycles) / float64(cyc)
				}
				out = append(out, C("scalability",
					fmt.Sprintf("%s/%s/cores=%d", nic.Name, m, cores),
					map[string]float64{
						"agg_gbps":       c.AggGbps,
						"cycles_per_pkt": c.MeanCyclesPerPacket,
						"lock_acq":       float64(c.Lock.Acquisitions),
						"lock_contended": float64(c.Lock.Contended),
						"lock_wait_frac": waitFrac,
					}))
			}
		}
	}
	return out
}

// Render prints one aggregate-Gbps table per NIC (modes x cores) plus the
// baseline modes' lock-contention profile.
func (r ScalabilityResult) Render() string {
	var b strings.Builder
	for _, nic := range r.NICs {
		header := []string{"mode"}
		for _, cores := range r.Cores {
			header = append(header, fmt.Sprintf("%d cores", cores))
		}
		header = append(header, "16c vs 1c")
		t := stats.NewTable(
			fmt.Sprintf("Figure S1 (%s). Aggregate Gbps vs cores (line rate %g Gbps)", nic.Name, profileLineRate(nic)),
			header...)
		t.AlignLeft(0)
		for _, m := range r.Modes {
			row := []string{m.String()}
			var first, last float64
			for i, cores := range r.Cores {
				c := r.Matrix[ScaleKey{NIC: nic.Name, Mode: m, Cores: cores}]
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
	for _, nic := range r.NICs {
		for _, m := range r.Modes {
			if !multicore.ContendedMode(m) {
				continue
			}
			c := r.Matrix[ScaleKey{NIC: nic.Name, Mode: m, Cores: 16}]
			var cyc uint64
			for _, pc := range c.PerCore {
				cyc += pc.Cycles
			}
			frac := 0.0
			if cyc > 0 {
				frac = float64(c.Lock.WaitCycles) / float64(cyc)
			}
			ct.Row(nic.Name, m.String(), c.Lock.Acquisitions, c.Lock.Contended,
				fmt.Sprintf("%.1f%%", 100*frac))
		}
	}
	b.WriteString(ct.String())
	return b.String()
}

func profileLineRate(p device.NICProfile) float64 { return p.LineRateGbps }

func init() {
	register(Experiment{
		ID:    "scalability",
		Title: "Figure S1: aggregate throughput vs cores, per mode and NIC",
		Paper: "§2.3: rings handled concurrently by different cores — rIOMMU scales to line rate while strict/defer serialize on the shared IOVA allocator and invalidation queue",
		Run:   wrap(RunScalability),
	})
}
