package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// CSV export: the paper's figures are plots; these emitters write the data
// series behind Figures 7, 8 and 12 as CSV files ready for any plotting
// tool, one file per figure panel.

// WriteCSV renders rows into dir/name.csv.
func WriteCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func f2s(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// CSV writes the Figure 7 stacked-bar series.
func (r Figure7Result) CSV(dir string) error {
	rows := make([][]string, 0, len(r.Keys))
	for i, m := range r.Keys {
		bar := r.Results[i]
		rows = append(rows, []string{
			m.String(), f2s(bar.IOVA), f2s(bar.PageTable), f2s(bar.Inv),
			f2s(bar.Other), f2s(bar.Total),
		})
	}
	return WriteCSV(dir, "figure7",
		[]string{"mode", "iova_dealloc", "page_table", "iotlb_inv", "other", "total"}, rows)
}

// CSV writes the Figure 8 model curve, sweep and mode points.
func (r Figure8Result) CSV(dir string) error {
	var rows [][]string
	for _, p := range r.Curve {
		rows = append(rows, []string{"model", "", f2s(p.Cycles), f2s(p.ModelGbs), ""})
	}
	for _, p := range r.Sweep {
		rows = append(rows, []string{"busywait", p.Label, f2s(p.Cycles), f2s(p.ModelGbs), f2s(p.MeasuredGbs)})
	}
	for _, p := range r.Modes {
		rows = append(rows, []string{"mode", p.Label, f2s(p.Cycles), f2s(p.ModelGbs), f2s(p.MeasuredGbs)})
	}
	return WriteCSV(dir, "figure8",
		[]string{"series", "label", "cycles_per_packet", "model_gbps", "measured_gbps"}, rows)
}

// CSV writes one file per NIC with every Figure 12 panel's series.
func (r Figure12Result) CSV(dir string) error {
	for _, nic := range nics {
		var rows [][]string
		for i, k := range r.Keys {
			if k.NIC != nic.Name {
				continue
			}
			c := r.Results[i]
			rows = append(rows, []string{
				k.Bench, k.Mode.String(), fmt.Sprintf("%g", c.Throughput), c.Unit,
				f2s(c.CPU * 100), f2s(c.CyclesPerUnit),
			})
		}
		if err := WriteCSV(dir, "figure12_"+nic.Name,
			[]string{"benchmark", "mode", "throughput", "unit", "cpu_pct", "cycles_per_unit"}, rows); err != nil {
			return err
		}
	}
	return nil
}

// ExportCSV regenerates the three figures and writes their data series
// under dir. Used by riommu-bench -csv.
func ExportCSV(dir string, cfg Config) error {
	f7, err := RunFigure7(cfg)
	if err != nil {
		return fmt.Errorf("figure7: %w", err)
	}
	if err := f7.CSV(dir); err != nil {
		return err
	}
	f8, err := RunFigure8(cfg)
	if err != nil {
		return fmt.Errorf("figure8: %w", err)
	}
	if err := f8.CSV(dir); err != nil {
		return err
	}
	f12, err := RunFigure12(cfg)
	if err != nil {
		return fmt.Errorf("figure12: %w", err)
	}
	return f12.CSV(dir)
}
