package experiments

import (
	"bytes"
	"testing"
)

// equivalenceSubset keeps the serial-vs-parallel test fast enough for the
// race detector while still covering every fan-out shape used by the
// experiment layer: Map over modes (table1, table3), Map over a flattened
// multi-dimension grid (figure7), indexed Run with disjoint writes
// (methodology, pathology), multi-sweep (ablations), split RNG streams
// (misspenalty), and nested parts (prefetchers). table1 runs before figure7
// here, so figure7 takes four of its cells from RunAll's cell memo and the
// memo's hits run under every worker count too; methodology computes its RR
// cells itself, without figure12. The heavyweight full-matrix experiments
// (figure12, table2) use the same parallel.Map shape as figure7 and are
// exercised across worker counts by the CI golden diff, which runs at
// default workers against a -parallel 1 golden.
var equivalenceSubset = []string{
	"table1", "table3", "figure7", "ablations", "misspenalty",
	"methodology", "pathology", "prefetchers", "bonnie", "nvme",
}

func subsetExperiments(t *testing.T) []Experiment {
	t.Helper()
	var sel []Experiment
	for _, id := range equivalenceSubset {
		e, err := Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", id, err)
		}
		sel = append(sel, e)
	}
	return sel
}

// TestSerialParallelEquivalence is the tentpole guarantee: for a fixed
// quality, the merged report and the rendered text are byte-identical no
// matter how many workers execute the cell grid.
func TestSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep is slow under -short")
	}
	sel := subsetExperiments(t)

	type snapshot struct {
		texts [][]byte
		json  []byte
	}
	runAt := func(workers int) snapshot {
		cfg := Config{Quality: Quick, Workers: workers}
		results := RunAll(cfg, sel)
		var s snapshot
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, r.Experiment.ID, r.Err)
			}
			s.texts = append(s.texts, []byte(r.Output.Text))
		}
		rep, err := BuildReport(cfg, results)
		if err != nil {
			t.Fatalf("workers=%d: BuildReport: %v", workers, err)
		}
		s.json, err = MarshalReport(rep)
		if err != nil {
			t.Fatalf("workers=%d: MarshalReport: %v", workers, err)
		}
		return s
	}

	want := runAt(1)
	if len(want.json) == 0 {
		t.Fatal("serial report is empty")
	}
	for _, workers := range []int{2, 8} {
		got := runAt(workers)
		for i, e := range sel {
			if !bytes.Equal(want.texts[i], got.texts[i]) {
				t.Errorf("workers=%d: %s rendered text differs from serial", workers, e.ID)
			}
		}
		if !bytes.Equal(want.json, got.json) {
			t.Errorf("workers=%d: JSON report differs from serial (%d vs %d bytes)",
				workers, len(want.json), len(got.json))
		}
	}
}

// TestReportCellsCoverAllExperiments ensures no registered experiment ships
// without machine-readable cells: an empty cell list would silently shrink
// the CI golden's coverage.
func TestReportCellsCoverAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow under -short")
	}
	cfg := Serial(Quick)
	results := RunAll(cfg, nil)
	rep, err := BuildReport(cfg, results)
	if err != nil {
		t.Fatal(err)
	}
	checkReused(t, results)
	if len(rep.Experiments) != len(All()) {
		t.Fatalf("report covers %d experiments, registry has %d", len(rep.Experiments), len(All()))
	}
	for _, er := range rep.Experiments {
		if len(er.Cells) == 0 {
			t.Errorf("experiment %s emitted no cells", er.ID)
		}
		for _, c := range er.Cells {
			if c.Experiment != er.ID {
				t.Errorf("cell %s/%s claims experiment %q", er.ID, c.ID, c.Experiment)
			}
			if len(c.Metrics) == 0 {
				t.Errorf("cell %s/%s has no metrics", er.ID, c.ID)
			}
		}
	}
	// The marshalled form must be stable across repeated marshals (map key
	// ordering is encoding/json's, not insertion order).
	a, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("MarshalReport is not stable across calls")
	}
}
