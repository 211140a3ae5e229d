package campaign

import (
	"strings"
	"testing"

	"riommu/internal/sim"
)

// TestChurnCells runs a small audited churn campaign and pins the axis's
// contract: churn cells ride at the end of the grid without disturbing any
// legacy cell identity, every cell is violation-free (there is no attacker
// in a churn cell), the traffic actually churns at the high-connection end,
// and the map/unmap storm costs strict mode more than rIOMMU.
func TestChurnCells(t *testing.T) {
	opts := Options{
		Seed:    42,
		Rates:   []float64{0},
		Modes:   []sim.Mode{sim.Strict, sim.RIOMMU},
		Rounds:  12,
		Workers: 1,
		Churn:   []int{4000, 400000},
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	churn := map[Key]CellMetrics{}
	for i, k := range res.Keys {
		if k.Family != Churn {
			continue
		}
		if i < len(res.Keys)-4 {
			t.Errorf("churn cell %s at grid index %d — churn cells must append after every legacy cell", k, i)
		}
		if want := "nic/" + k.Mode.String() + "/churn="; !strings.HasPrefix(k.String(), want) {
			t.Errorf("churn key renders as %q, want prefix %q", k.String(), want)
		}
		churn[k] = res.Cells[i]
	}
	if len(churn) != 4 {
		t.Fatalf("grid has %d churn cells, want 4", len(churn))
	}

	for k, c := range churn {
		if !c.Audited || c.Checked == 0 {
			t.Errorf("%s: churn cell not audited (checked=%d)", k, c.Checked)
		}
		if c.Violations != 0 {
			t.Errorf("%s: %d violations without an attacker", k, c.Violations)
		}
		if c.DataPackets == 0 || c.Gbps <= 0 {
			t.Errorf("%s: degenerate cell (%d packets, %.2f Gbps)", k, c.DataPackets, c.Gbps)
		}
	}

	hiStrict := churn[Key{Family: Churn, Device: "nic", Mode: sim.Strict, N: 400000}]
	hiRiommu := churn[Key{Family: Churn, Device: "nic", Mode: sim.RIOMMU, N: 400000}]
	if hiStrict.Opens == 0 || hiStrict.Closes == 0 {
		t.Errorf("high-churn cell opened %d / closed %d flows — no churn happened", hiStrict.Opens, hiStrict.Closes)
	}
	if hiStrict.CyclesPerOp <= hiRiommu.CyclesPerOp {
		t.Errorf("strict %.0f cyc/pkt not above rIOMMU %.0f under the map/unmap storm",
			hiStrict.CyclesPerOp, hiRiommu.CyclesPerOp)
	}

	text := res.Render()
	if !strings.Contains(text, "Connection-churn campaign") {
		t.Fatalf("render missing churn table:\n%s", text)
	}
}

func TestParseChurn(t *testing.T) {
	if got, err := ParseCounts("", "churn", 1, 10_000_000); err != nil || got != nil {
		t.Errorf("ParseCounts(\"\", churn) = %v, %v; want nil, nil", got, err)
	}
	got, err := ParseCounts("2000, 500000", "churn", 1, 10_000_000)
	if err != nil || len(got) != 2 || got[0] != 2000 || got[1] != 500000 {
		t.Errorf("ParseCounts(\"2000, 500000\", churn) = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-5", "x", "2000,,4000", "10000001"} {
		if _, err := ParseCounts(bad, "churn", 1, 10_000_000); err == nil {
			t.Errorf("ParseCounts(%q, churn) succeeded, want error", bad)
		}
	}
}
