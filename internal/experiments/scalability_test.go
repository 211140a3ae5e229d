package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"riommu/internal/device"
	"riommu/internal/multicore"
	"riommu/internal/sim"
)

// TestScalabilityDeterminism is the new engine's regression gate: the K-core
// scale-out grid must merge to byte-identical rendered text and JSON cells
// for any worker count (same pattern as TestSerialParallelEquivalence, but
// pinned to the multicore engine so a scheduler or lock-model change that
// breaks determinism fails here by name).
func TestScalabilityDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep is slow under -short")
	}
	type snapshot struct {
		text []byte
		json []byte
	}
	runAt := func(workers int) snapshot {
		res, err := RunScalability(Config{Quality: Quick, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := json.Marshal(res.Cells())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return snapshot{text: []byte(res.Render()), json: j}
	}
	want := runAt(1)
	if len(want.json) == 0 {
		t.Fatal("serial scalability run produced no cells")
	}
	for _, workers := range []int{2, 8} {
		got := runAt(workers)
		if !bytes.Equal(want.text, got.text) {
			t.Errorf("workers=%d: rendered text differs from serial", workers)
		}
		if !bytes.Equal(want.json, got.json) {
			t.Errorf("workers=%d: JSON cells differ from serial (%d vs %d bytes)",
				workers, len(want.json), len(got.json))
		}
	}
}

// TestScalabilityCurveShape pins the headline claim at experiment
// granularity: on the mlx profile the riommu aggregate at 8 cores beats
// strict by at least 3x, and no cell exceeds its line rate.
func TestScalabilityCurveShape(t *testing.T) {
	res, err := RunScalability(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	strict := res.At(ScaleKey{NIC: "mlx", Mode: sim.Strict, Cores: 8})
	riommu := res.At(ScaleKey{NIC: "mlx", Mode: sim.RIOMMU, Cores: 8})
	if riommu.AggGbps < 3*strict.AggGbps {
		t.Errorf("mlx 8 cores: riommu %.2f Gbps < 3x strict %.2f Gbps", riommu.AggGbps, strict.AggGbps)
	}
	for i, k := range res.Keys {
		c := res.Results[i]
		line := device.ProfileMLX.LineRateGbps
		if k.NIC == device.ProfileBRCM.Name {
			line = device.ProfileBRCM.LineRateGbps
		}
		if c.AggGbps > line+1e-9 {
			t.Errorf("%s/%s/cores=%d: %.3f Gbps exceeds line rate %g", k.NIC, k.Mode, k.Cores, c.AggGbps, line)
		}
		if multicore.ContendedMode(k.Mode) != (c.Lock.Acquisitions > 0) {
			t.Errorf("%s/%s/cores=%d: lock acquisitions %d inconsistent with mode class",
				k.NIC, k.Mode, k.Cores, c.Lock.Acquisitions)
		}
	}
}
