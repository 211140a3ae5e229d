package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Cell is one machine-readable grid point: an experiment, the cell's
// identity within its grid, and the virtual-cycle metrics measured there.
// Because every clock in the simulator is virtual and every RNG is seeded,
// cell metrics are pure functions of (code, quality, seed) — so CI can
// compare marshalled cells byte-exactly against a committed golden file.
//
// Metrics marshal deterministically: encoding/json sorts map keys, and Go
// formats a given float64 bit pattern to a unique shortest representation.
type Cell struct {
	Experiment string             `json:"experiment"`
	ID         string             `json:"cell"`
	Metrics    map[string]float64 `json:"metrics"`
}

// C builds a Cell.
func C(experiment, id string, metrics map[string]float64) Cell {
	return Cell{Experiment: experiment, ID: id, Metrics: metrics}
}

// ExperimentReport groups one experiment's cells in grid order.
type ExperimentReport struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Cells []Cell `json:"cells"`
}

// Report is the full machine-readable run: every selected experiment's
// cells in registry order. This is what riommu-bench -json emits and what
// the CI benchmark-regression gate diffs against BENCH_golden.json.
// Interrupted marks a partial report flushed on SIGINT/SIGTERM — it is
// omitted on complete runs so golden files stay byte-stable.
type Report struct {
	Quality     string             `json:"quality"`
	Interrupted bool               `json:"interrupted,omitempty"`
	Experiments []ExperimentReport `json:"experiments"`
}

// RunResult pairs an experiment with its outcome. Err is per-experiment so
// callers can report every failing cell rather than stopping at the first.
// Reused counts the cells the experiment took from an earlier experiment of
// the same RunAll call, and Elapsed is its host wall-clock time; neither is
// part of the report.
type RunResult struct {
	Experiment Experiment
	Output     Output
	Err        error
	Reused     int
	Elapsed    time.Duration
}

// RunAll executes the selected experiments (all registered ones when sel is
// nil) in order. Experiments run one after another; the fan-out happens at
// the cell level inside each experiment, so at most cfg.Workers simulation
// worlds are live at any moment regardless of how many experiments are
// selected.
//
// The experiments of one call share the cells they repeat: Table 2 is
// derived from Figure 12's matrix, Table 1 measures four of Figure 7's
// stream cells, Figure S1's seven mlx 4-core cells are intremap's remap-off
// half, and at Quick quality §5.1's no-IOMMU RR cell is Figure 12's
// mlx/rr/none. Those experiments look each cell up, by its runner and every
// argument, in a memo that lives only for this call, before building a
// world. The first to need a cell computes and stores its result value; a
// later one reuses it. A cell is a pure function of those inputs, so an
// experiment's output is the same bytes whether or not the cells it needs
// ran before it. Two calls share nothing, and a Config built outside
// RunAll has no memo.
func RunAll(cfg Config, sel []Experiment) []RunResult {
	if sel == nil {
		sel = All()
	}
	cfg.memo = newCellMemo()
	out := make([]RunResult, len(sel))
	for i, e := range sel {
		start, reused := time.Now(), cfg.memo.reused()
		o, err := e.Run(cfg)
		out[i] = RunResult{
			Experiment: e,
			Output:     o,
			Err:        err,
			Reused:     cfg.memo.reused() - reused,
			Elapsed:    time.Since(start),
		}
	}
	return out
}

// BuildReport assembles the machine-readable report from RunAll's results.
// It must only be called when every result succeeded: a partial report
// would silently pass the CI diff for the cells that did run.
func BuildReport(cfg Config, results []RunResult) (Report, error) {
	rep := Report{Quality: cfg.Quality.String()}
	for _, r := range results {
		if r.Err != nil {
			return Report{}, fmt.Errorf("experiments: %s failed: %w", r.Experiment.ID, r.Err)
		}
		rep.Experiments = append(rep.Experiments, ExperimentReport{
			ID:    r.Experiment.ID,
			Title: r.Experiment.Title,
			Cells: r.Output.Cells,
		})
	}
	return rep, nil
}

// BuildPartialReport assembles a report from whatever experiments finished
// before an interrupt: failed or skipped experiments are dropped and the
// report is marked Interrupted. Unlike BuildReport it never fails — an
// interrupted run flushes what it has.
func BuildPartialReport(cfg Config, results []RunResult) Report {
	rep := Report{Quality: cfg.Quality.String(), Interrupted: true}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		rep.Experiments = append(rep.Experiments, ExperimentReport{
			ID:    r.Experiment.ID,
			Title: r.Experiment.Title,
			Cells: r.Output.Cells,
		})
	}
	return rep
}

// MarshalReport renders a Report to the canonical byte form used for both
// the -json flag and the golden comparison.
func MarshalReport(rep Report) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the canonical report bytes to path.
func WriteJSON(path string, rep Report) error {
	b, err := MarshalReport(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
