package experiments

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"riommu/internal/sim"
)

// TestFigS2Crossover runs the quick sweep and pins the acceptance
// property: at the high-churn end, strict-mode kernel throughput collapses
// while rIOMMU and the bypass path sustain at least 3x its goodput.
func TestFigS2Crossover(t *testing.T) {
	res, err := RunFigS2(Serial(Quick))
	if err != nil {
		t.Fatalf("RunFigS2: %v", err)
	}
	lo, hi := res.Conns[0], res.Conns[len(res.Conns)-1]
	strictLo := res.At(FigS2Key{Conns: lo, Path: "kernel", Mode: sim.Strict})
	strict := res.At(FigS2Key{Conns: hi, Path: "kernel", Mode: sim.Strict})
	riommu := res.At(FigS2Key{Conns: hi, Path: "kernel", Mode: sim.RIOMMU})
	bypass := res.At(FigS2Key{Conns: hi, Path: "bypass", Mode: sim.Strict})

	if riommu.Gbps < 3*strict.Gbps {
		t.Errorf("rIOMMU kernel %.2f Gbps not >= 3x strict kernel %.2f Gbps at %d conns",
			riommu.Gbps, strict.Gbps, hi)
	}
	if bypass.Gbps < 3*strict.Gbps {
		t.Errorf("strict bypass %.2f Gbps not >= 3x strict kernel %.2f Gbps at %d conns",
			bypass.Gbps, strict.Gbps, hi)
	}
	if strict.Gbps >= strictLo.Gbps {
		t.Errorf("no collapse: strict kernel %.2f Gbps at %d conns vs %.2f at %d",
			strict.Gbps, hi, strictLo.Gbps, lo)
	}
	for i, k := range res.Keys {
		if c := res.Results[i]; c.AuditViolations != 0 {
			t.Errorf("conns=%d/%s/%s: %d audit violations", k.Conns, k.Path, k.Mode, c.AuditViolations)
		}
	}

	wantCells := len(res.Conns) * len(figS2Paths) * len(sim.AllModes())
	cells := res.Cells()
	if len(cells) != wantCells {
		t.Fatalf("Cells() emitted %d rows, want %d", len(cells), wantCells)
	}
	for _, c := range cells {
		if _, ok := c.Metrics["gbps"]; !ok {
			t.Fatalf("cell %s has no gbps metric", c.ID)
		}
		hi, lo := c.Metrics["app_digest_hi"], c.Metrics["app_digest_lo"]
		if hi == 0 && lo == 0 {
			t.Errorf("cell %s has a zero application digest", c.ID)
		}
	}
	out := res.Render()
	for _, want := range []string{"Figure S2", "kernel path", "bypass path", "collapse"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() output missing %q", want)
		}
	}
}

// TestFigS2GoldenCrossover pins the same property against the committed
// golden, so a refresh that quietly loses the collapse cannot land: the
// figS2 rows in BENCH_golden.json must themselves show the >=3x margins.
func TestFigS2GoldenCrossover(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_golden.json")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var report struct {
		Experiments []struct {
			ID    string `json:"id"`
			Cells []struct {
				ID      string             `json:"cell"`
				Metrics map[string]float64 `json:"metrics"`
			} `json:"cells"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	gbps := map[string]float64{}
	for _, e := range report.Experiments {
		if e.ID != "figS2" {
			continue
		}
		for _, c := range e.Cells {
			gbps[c.ID] = c.Metrics["gbps"]
		}
	}
	if len(gbps) == 0 {
		t.Fatalf("golden has no figS2 cells; refresh with: make bench-json")
	}
	hi := figS2Conns(Quick)[len(figS2Conns(Quick))-1]
	id := func(path string, m sim.Mode) string {
		return figS2ID(FigS2Key{Conns: hi, Path: path, Mode: m})
	}
	strict, ok := gbps[id("kernel", sim.Strict)]
	if !ok {
		t.Fatalf("golden missing cell %q", id("kernel", sim.Strict))
	}
	if r := gbps[id("kernel", sim.RIOMMU)]; r < 3*strict {
		t.Errorf("golden: rIOMMU kernel %.2f not >= 3x strict kernel %.2f", r, strict)
	}
	if bp := gbps[id("bypass", sim.Strict)]; bp < 3*strict {
		t.Errorf("golden: strict bypass %.2f not >= 3x strict kernel %.2f", bp, strict)
	}
}
