package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"riommu/internal/experiments"
	"riommu/internal/sim"
)

// goldenPath is the committed quick-grid report, relative to the repository
// root the benchmark runs from.
const goldenPath = "BENCH_golden.json"

// A grid workload's set-up takes microseconds (fault-grid) to milliseconds
// (paper-quick). setupRounds batches of it each run for at least
// setupBatch, so timer and cache jitter average out within a batch, and
// the median batch's time per set-up is reported. The collector is off
// while the batches run: right after runRep's collections the heap goal is
// a few megabytes, and whether a cycle lands inside a batch would
// otherwise decide its time.
const (
	setupRounds = 5
	setupBatch  = 2 * time.Millisecond
)

// medianSetup times setupRounds batches of f and returns the median
// duration of one call.
func medianSetup(f func() error) (time.Duration, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	xs := make([]float64, setupRounds)
	for i := range xs {
		n := 0
		t := time.Now()
		for n == 0 || time.Since(t) < setupBatch {
			if err := f(); err != nil {
				return 0, err
			}
			n++
		}
		xs[i] = float64(time.Since(t)) / float64(n)
	}
	return time.Duration(median(xs)), nil
}

// paperQuickRep runs every registered experiment at Quick quality on one
// worker, with the experiments' own fixed seeds (the seed argument is
// unused: the output is checked byte for byte against the golden).
func paperQuickRep(_ uint64, tr *tracer) (sample, error) {
	var (
		s       sample
		goldenB []byte
		golden  experiments.Report
		cfg     experiments.Config
		sel     []experiments.Experiment
		err     error
	)
	s.setup, err = medianSetup(func() error {
		goldenB, err = os.ReadFile(goldenPath)
		if err != nil {
			return fmt.Errorf("paper-quick needs the golden report: %w", err)
		}
		golden = experiments.Report{}
		if err := json.Unmarshal(goldenB, &golden); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
		cfg = experiments.Serial(experiments.Quick)
		sel = experiments.All()
		return nil
	})
	if err != nil {
		return s, err
	}

	start := time.Now()
	var results []experiments.RunResult
	if tr == nil {
		results = experiments.RunAll(cfg, sel)
	} else {
		s.layers = map[string]float64{}
		for _, e := range sel {
			id := tr.begin("experiments."+e.ID, true)
			results = append(results, experiments.RunAll(cfg, []experiments.Experiment{e})...)
			tr.end(id)
			s.layers["experiments."+e.ID+"_ms"] = tr.ms(id)
			s.layers["experiments."+e.ID+"_alloc_mb"] = tr.allocMB(id)
		}
	}
	rep, err := experiments.BuildReport(cfg, results)
	if err != nil {
		rep = experiments.BuildPartialReport(cfg, results)
	}
	got, merr := experiments.MarshalReport(rep)
	s.wall = time.Since(start)
	if merr != nil {
		return s, merr
	}

	for _, r := range results {
		if r.Err != nil {
			s.problems = append(s.problems, fmt.Sprintf("paper-quick: %s: %v", r.Experiment.ID, r.Err))
		}
	}
	checkGolden(&s, got, rep, goldenB, golden)
	for _, e := range rep.Experiments {
		s.cells += len(e.Cells)
		if e.ID == "figS2" {
			for _, c := range e.Cells {
				s.pkts += uint64(c.Metrics["packets"])
			}
		}
	}
	sum := sha256.Sum256(got)
	s.outputs = fmt.Sprintf("%x", sum)
	s.pinned = map[string]float64{
		"experiments.table1_err_pct": table1ErrPct(rep),
		"experiments.table2_err_pct": table2ErrPct(rep),
	}
	return s, nil
}

// checkGolden makes every golden cell a unit and fails the cells that keep
// got from being byte-identical to the golden: golden cells with no
// identical counterpart plus cells the golden lacks. Any other byte
// difference fails one unit.
func checkGolden(s *sample, got []byte, rep experiments.Report, goldenB []byte, golden experiments.Report) {
	for _, e := range golden.Experiments {
		s.units += len(e.Cells)
	}
	if bytes.Equal(got, goldenB) {
		return
	}
	cells := func(r experiments.Report) map[string]string {
		m := map[string]string{}
		for _, e := range r.Experiments {
			for _, c := range e.Cells {
				b, _ := json.Marshal(c)
				m[c.Experiment+"\x00"+c.ID] = string(b)
			}
		}
		return m
	}
	want, have := cells(golden), cells(rep)
	n := 0
	for k, v := range want {
		if have[k] != v {
			n++
		}
	}
	for k := range have {
		if _, ok := want[k]; !ok {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	if n > s.units {
		n = s.units
	}
	s.fail(n, "paper-quick: %d of %d cells differ from %s", n, s.units, goldenPath)
}

// table1Rows maps Table1Paper's rows to the table1 experiment's metrics.
var table1Rows = map[string]string{
	"iova alloc": "map_iova_alloc",
	"page table": "map_page_table",
	"map other":  "map_other",
	"iova find":  "unmap_find",
	"iova free":  "unmap_free",
	"unmap pt":   "unmap_pt",
	"iotlb inv":  "unmap_inv",
	"unmap oth":  "unmap_other",
}

// table1ErrPct is the mean relative error, in percent, of the simulated
// Table 1 component cycles against the paper's.
func table1ErrPct(rep experiments.Report) float64 {
	var errs []float64
	for _, c := range reportCells(rep, "table1") {
		for row, metric := range table1Rows {
			for m, paper := range experiments.Table1Paper[row] {
				if m.String() == c.ID {
					errs = append(errs, relErr(c.Metrics[metric], paper))
				}
			}
		}
	}
	return meanPct(errs)
}

// table2ErrPct is the mean relative error, in percent, of the simulated
// rIOMMU throughput ratios against the paper's Table 2.
func table2ErrPct(rep experiments.Report) float64 {
	var errs []float64
	for _, c := range reportCells(rep, "table2") {
		// Cell IDs read "<variant>/<nic>/<bench>/vs-<mode>".
		parts := strings.Split(c.ID, "/")
		if len(parts) != 4 || parts[0] != sim.RIOMMU.String() {
			continue
		}
		key := experiments.BenchKey{Bench: parts[2], NIC: parts[1]}
		for m, paper := range experiments.Table2Paper[key] {
			if "vs-"+m.String() == parts[3] {
				errs = append(errs, relErr(c.Metrics["tput_ratio"], paper))
			}
		}
	}
	return meanPct(errs)
}

func reportCells(rep experiments.Report, id string) []experiments.Cell {
	for _, e := range rep.Experiments {
		if e.ID == id {
			return e.Cells
		}
	}
	return nil
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// meanPct sums in a fixed order, so equal inputs give equal bits.
func meanPct(errs []float64) float64 {
	if len(errs) == 0 {
		return 0
	}
	s := append([]float64(nil), errs...)
	sort.Float64s(s)
	var sum float64
	for _, e := range s {
		sum += e
	}
	return 100 * sum / float64(len(s))
}
