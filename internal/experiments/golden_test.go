package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenPurity is the tenancy-off purity gate in test form: the
// experiment layer never constructs a tenant host, so the full quick grid
// must keep reproducing the committed BENCH_golden.json byte for byte. A
// diff here means the multi-tenant layer leaked into the single-stage
// translation path (or an intentional metric change forgot `make
// bench-json`).
func TestGoldenPurity(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick grid is slow under -short")
	}
	want, err := os.ReadFile("../../BENCH_golden.json")
	if err != nil {
		t.Fatalf("reading committed golden: %v", err)
	}

	// The golden is generated serially; TestSerialParallelEquivalence covers
	// the worker-count axis, so purity is checked on the same serial path.
	cfg := Serial(Quick)
	results := RunAll(cfg, nil)
	rep, err := BuildReport(cfg, results)
	if err != nil {
		t.Fatal(err)
	}
	checkReused(t, results)
	got, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("quick grid drifted from BENCH_golden.json (%d vs %d bytes); "+
			"if intentional refresh with `make bench-json`", len(want), len(got))
	}
}
