package experiments

import (
	"fmt"

	"riommu/internal/device"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/workload"
)

// Figure8Point is one (C, Gbps) sample.
type Figure8Point struct {
	Cycles   float64
	ModelGbs float64
	// MeasuredGbs is set for busy-wait sweep points and mode points.
	MeasuredGbs float64
	Label       string
}

// Figure8Result holds the model curve, the busy-wait validation sweep, and
// the per-mode measured points of Figure 8.
type Figure8Result struct {
	Curve []Figure8Point // thick line: the Gbps(C) model
	Sweep []Figure8Point // thin line: none-mode with busy-wait lengthened C
	Modes []Figure8Point // cross points: the seven modes
}

// RunFigure8 regenerates Figure 8 on the mlx profile. The busy-wait sweep
// points and the mode points are independent cells.
func RunFigure8(cfg Config) (Figure8Result, error) {
	var res Figure8Result
	mlx := device.ProfileMLX
	model := sim.ProfileModel(mlx)

	// Model curve over the C range the paper plots (~1.8K..18K cycles).
	for c := 1800.0; c <= 18200; c += 400 {
		res.Curve = append(res.Curve, Figure8Point{
			Cycles:   c,
			ModelGbs: perfmodel.Gbps(model, c, mlx.LineRateGbps),
		})
	}

	opts := workload.StreamOpts{
		Messages:       cfg.Quality.scale(60, 200),
		WarmupMessages: cfg.Quality.scale(20, 60),
	}
	// point measures one stream cell and places it against the model.
	point := func(label string, m sim.Mode, o workload.StreamOpts) (Figure8Point, error) {
		r, err := workload.NetperfStream(m, mlx, o)
		return Figure8Point{
			Cycles:      r.CyclesPerUnit,
			ModelGbs:    perfmodel.Gbps(model, r.CyclesPerUnit, mlx.LineRateGbps),
			MeasuredGbs: r.Throughput,
			Label:       label,
		}, err
	}

	// Busy-wait sweep: systematically lengthen C_none with a controlled
	// per-packet busy-wait loop, as §3.3 does, and measure throughput.
	sweep, err := runGrid(cfg, []uint64{0, 1000, 2000, 4000, 8000, 16000}, func(extra uint64) (Figure8Point, error) {
		o := opts
		o.ExtraCyclesPerPacket = extra
		return point(fmt.Sprintf("busywait+%d", extra), sim.None, o)
	})
	if err != nil {
		return res, err
	}
	modes, err := runGrid(cfg, sim.AllModes(), func(m sim.Mode) (Figure8Point, error) {
		return point(m.String(), m, opts)
	})
	res.Sweep, res.Modes = sweep.Results, modes.Results
	return res, err
}

// Cells emits every measured point (the analytic model curve regenerates
// from the cycles model, which the mode points already pin down).
func (r Figure8Result) Cells() []Cell {
	var out []Cell
	for _, p := range r.Sweep {
		out = append(out, C("figure8", "sweep/"+p.Label, map[string]float64{
			"cycles":        p.Cycles,
			"model_gbps":    p.ModelGbs,
			"measured_gbps": p.MeasuredGbs,
		}))
	}
	for _, p := range r.Modes {
		out = append(out, C("figure8", "mode/"+p.Label, map[string]float64{
			"cycles":        p.Cycles,
			"model_gbps":    p.ModelGbs,
			"measured_gbps": p.MeasuredGbs,
		}))
	}
	return out
}

// Render prints the sweep and mode points against the model.
func (r Figure8Result) Render() string {
	t := stats.NewTable(
		"Figure 8. Netperf throughput vs cycles per packet: model vs measured",
		"point", "C (cycles)", "model Gbps", "measured Gbps", "model err")
	t.AlignLeft(0)
	for _, p := range append(append([]Figure8Point{}, r.Sweep...), r.Modes...) {
		errPct := 0.0
		if p.ModelGbs > 0 {
			errPct = (p.MeasuredGbs - p.ModelGbs) / p.ModelGbs * 100
		}
		t.Row(p.Label, p.Cycles, p.ModelGbs, p.MeasuredGbs, fmt.Sprintf("%+.1f%%", errPct))
	}
	return t.String()
}
