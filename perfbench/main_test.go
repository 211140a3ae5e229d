package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"riommu/internal/campaign"
	"riommu/internal/experiments"
	"riommu/internal/sim"
	"riommu/internal/traffic"
)

func readGolden(t *testing.T) ([]byte, experiments.Report) {
	t.Helper()
	b, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return b, rep
}

func TestGoldenMatchPasses(t *testing.T) {
	b, rep := readGolden(t)
	var s sample
	checkGolden(&s, b, rep, b, rep)
	if s.units != 387 || s.failed != 0 {
		t.Fatalf("units=%d failed=%d, want 387 and 0", s.units, s.failed)
	}
}

// A golden with one cell altered fails exactly that cell.
func TestGoldenWithOneCellAlteredFails(t *testing.T) {
	b, rep := readGolden(t)
	_, altered := readGolden(t)
	altered.Experiments[3].Cells[5].Metrics["altered"] = 1
	alteredB, err := experiments.MarshalReport(altered)
	if err != nil {
		t.Fatal(err)
	}
	var s sample
	checkGolden(&s, b, rep, alteredB, altered)
	if s.units != 387 || s.failed != 1 {
		t.Fatalf("units=%d failed=%d, want 387 and 1", s.units, s.failed)
	}
}

// A nonzero violation count in a gap-free fault-grid cell fails that cell,
// and so does a cell that never completed.
func TestGridViolationFails(t *testing.T) {
	opts := campaign.Options{Seed: 1, Rates: []float64{0}, Modes: []sim.Mode{sim.Strict}, Rounds: 1, Workers: 1, Audit: true}
	keys := opts.Grid()
	res := campaign.Result{Opts: opts, Keys: keys, Cells: make([]campaign.CellMetrics, len(keys)), Completed: make([]bool, len(keys))}
	for i := range keys {
		res.Cells[i].Audited = true
		res.Completed[i] = true
	}
	var clean sample
	checkGrid(&clean, res, nil)
	if clean.failed != 0 {
		t.Fatalf("clean grid failed %d cells: %v", clean.failed, clean.problems)
	}

	res.Cells[0].Violations = 2
	res.Completed[len(keys)-1] = false
	var s sample
	checkGrid(&s, res, nil)
	if s.units != len(keys) || s.failed != 2 {
		t.Fatalf("units=%d failed=%d, want %d and 2: %v", s.units, s.failed, len(keys), s.problems)
	}
}

func TestChurnViolationAndDigestMismatchFail(t *testing.T) {
	runs := []modeRun{
		{mode: sim.Strict, res: traffic.Result{AppDigest: 7}},
		{mode: sim.Defer, res: traffic.Result{AppDigest: 7, AuditViolations: 3}},
		{mode: sim.RIOMMU, res: traffic.Result{AppDigest: 7}},
	}
	var s sample
	checkChurn(&s, runs)
	if s.units != 3 || s.failed != 1 {
		t.Fatalf("violation: units=%d failed=%d, want 3 and 1", s.units, s.failed)
	}

	runs[1].res.AuditViolations = 0
	runs[2].res.AppDigest = 8
	s = sample{}
	checkChurn(&s, runs)
	if s.failed != 1 || !strings.Contains(s.problems[0], "riommu") {
		t.Fatalf("digest mismatch: failed=%d problems=%v, want riommu failed", s.failed, s.problems)
	}
}

// fakeWorkload's traced repetitions disagree with its untraced ones.
func fakeWorkload(tracedOutputs string, tracedPinned float64) workload {
	return workload{name: "fake", rep: func(_ uint64, tr *tracer) (sample, error) {
		s := sample{units: 3, outputs: "digest", pinned: map[string]float64{"vgbps.strict": 1}}
		if tr != nil {
			s.outputs = tracedOutputs
			s.pinned["vgbps.strict"] = tracedPinned
		}
		return s, nil
	}}
}

func TestTracedMismatchFails(t *testing.T) {
	for _, tc := range []struct {
		outputs string
		pinned  float64
		moved   string
	}{
		{"other digest", 1, "outputs"},
		{"digest", 2, "vgbps.strict"},
	} {
		plain, traced, ref, _, err := measure(fakeWorkload(tc.outputs, tc.pinned), 1, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		res := summarize(plain, traced, ref)
		if res.Correct || res.Attempted != 6 || res.Failed != 3 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d, want false, 6, 3", tc.moved, res.Correct, res.Attempted, res.Failed)
		}
		if !strings.Contains(fmt.Sprint(traced[0].problems), tc.moved) {
			t.Fatalf("problem %v does not name %s", traced[0].problems, tc.moved)
		}
	}
	plain, traced, ref, _, err := measure(fakeWorkload("digest", 1), 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res := summarize(plain, traced, ref); !res.Correct {
		t.Fatalf("agreeing runs reported failed: %+v", res)
	}
}

// The timing wrappers must not change a single simulated output.
func TestWrappersArePureObservers(t *testing.T) {
	for _, m := range churnModes {
		cfg := churnConfig(m, 3, true)
		cfg.TableSlots, cfg.Ticks, cfg.WarmupTicks = 64, 8, 2
		var plainS, tracedS sample
		plainS.layers = map[string]float64{}
		tracedS.layers = map[string]float64{}
		want, err := churnWorld(&plainS, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := churnWorld(&tracedS, cfg, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: traced result differs:\n%+v\n%+v", m, got, want)
		}
		if tracedS.layers["audit."+m.String()+".checked_per_pkt"] == 0 {
			t.Fatalf("%s: auditor wrapper saw no calls", m)
		}
	}
}

// BENCHMARK.json lists exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n got %v\nwant %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer:\n got %v\nwant %v", spec.PerLayer, perLayer())
	}
}

// End-to-end times are scaled by the reference kernel's speed: a host twice
// as slow as the nominal one reports the same wall_s for twice the time.
func TestReferenceScaling(t *testing.T) {
	nominal := float64(refNominal) / 1e6
	plain := []sample{{wall: 4 * time.Second, setup: 2 * time.Millisecond, cells: 8, units: 1}}
	ref := refClock{ms: []float64{1.5 * nominal, 2 * nominal, 2.5 * nominal}}
	res := summarize(plain, nil, ref)
	for name, want := range map[string]float64{"wall_s": 2, "setup_s": 0.001, "cells_per_s": 4} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
