package campaign

import (
	"strings"
	"testing"

	"riommu/internal/chaos"
	"riommu/internal/sim"
)

// TestParseCounts covers the count-list grammar shared by the cores,
// tenants and churn flags, at the bounds the cores flag uses.
func TestParseCounts(t *testing.T) {
	got, err := ParseCounts("2, 64", "cores", 2, 64)
	if err != nil || len(got) != 2 || got[0] != 2 || got[1] != 64 {
		t.Fatalf("ParseCounts = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "65", "x", "2,,4"} {
		_, err := ParseCounts(bad, "cores", 2, 64)
		if err == nil {
			t.Errorf("ParseCounts(%q) in [2,64] accepted", bad)
		} else if !strings.Contains(err.Error(), "cores") {
			t.Errorf("ParseCounts(%q) error %q does not name the axis", bad, err)
		}
	}
}

func TestParseTenants(t *testing.T) {
	got, err := ParseCounts(" 2, 4 ", "tenants", 2, 512)
	if err != nil || len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("ParseCounts(tenants) = %v, %v", got, err)
	}
	if got, err := ParseCounts("", "tenants", 2, 512); err != nil || got != nil {
		t.Fatalf("empty ParseCounts(tenants) = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "513", "x"} {
		if _, err := ParseCounts(bad, "tenants", 2, 512); err == nil {
			t.Errorf("ParseCounts(%q, tenants) accepted", bad)
		}
	}
}

func TestTenantKeyString(t *testing.T) {
	k := Key{Family: Tenants, Device: "nic", Mode: sim.Strict, N: 3, Scenario: "bdf-spoof"}
	if got, want := k.String(), "nic/strict/tenants=3/tchaos=bdf-spoof"; got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
}

// TestTenantGridAppended proves turning the tenant axis on is a pure
// insertion: every pre-existing cell keeps its grid position.
func TestTenantGridAppended(t *testing.T) {
	base := Options{Modes: SafeModes, Rates: []float64{0, 0.001}}
	ext := base
	ext.Tenants = []int{2}
	bg, eg := base.Grid(), ext.Grid()
	if len(eg) <= len(bg) {
		t.Fatalf("extended grid not larger: %d vs %d", len(eg), len(bg))
	}
	for i, k := range bg {
		if eg[i] != k {
			t.Fatalf("cell %d moved: %s vs %s", i, eg[i], k)
		}
	}
	want := len(chaos.TenantScenarios()) * len(sim.AllModes())
	if got := len(eg) - len(bg); got != want {
		t.Fatalf("appended %d tenant cells, want %d", got, want)
	}
	for _, k := range eg[len(bg):] {
		if k.Family != Tenants || k.N != 2 || k.Scenario == "" {
			t.Fatalf("appended cell %s is not a tenant cell", k)
		}
	}
}

// TestTenantCampaignGate runs the full hostile-tenant sweep (every scenario
// x every presentation mode) at a small tenant count and requires the
// cross-tenant gate to hold: zero cross-tenant accesses, hostile tenant
// quarantined, victims at exactly 100% availability.
func TestTenantCampaignGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full tenant sweep in -short")
	}
	opts := Options{
		Seed:        7,
		Rounds:      24,
		Workers:     4,
		Tenants:     []int{3},
		TenantChaos: chaos.TenantScenarios(),
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fails := res.CrossTenantViolationsGate(); len(fails) != 0 {
		t.Fatalf("cross-tenant gate failed:\n%s", strings.Join(fails, "\n"))
	}
	for i, k := range res.Keys {
		c := res.Cells[i]
		if c.TenantChecked == 0 || c.S2Misses == 0 {
			t.Errorf("%s: stage-2 path unexercised (checked=%d misses=%d)", k, c.TenantChecked, c.S2Misses)
		}
		if c.Checked == 0 && k.Mode.Safe() {
			t.Errorf("%s: guest stage-1 oracle checked nothing", k)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Multi-tenant campaign") {
		t.Fatalf("render is missing the tenant table:\n%s", out)
	}
}

// TestTenantCellDeterminism: the same cell twice must produce identical
// metrics — no map-iteration order or allocator address may leak in.
func TestTenantCellDeterminism(t *testing.T) {
	run := func() CellMetrics {
		c, err := tenantCell(Key{Family: Tenants, Device: "nic", Mode: sim.RIOMMU, Scenario: string(chaos.S2StaleReplay), N: 2}, 1, Options{Rounds: 18})
		if err != nil {
			t.Fatalf("tenantCell: %v", err)
		}
		return c
	}
	a, b := run(), run()
	if a.TenantChecked != b.TenantChecked || a.S2Hits != b.S2Hits ||
		a.S2Misses != b.S2Misses || a.S2Cycles != b.S2Cycles ||
		a.Chaos != b.Chaos || a.CyclesPerOp != b.CyclesPerOp {
		t.Fatalf("tenant cell not deterministic:\n%+v\n%+v", a, b)
	}
}
