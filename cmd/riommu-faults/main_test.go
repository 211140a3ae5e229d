package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAuditChaosGatePasses: the -chaos flag (implying -audit) runs hostile
// cells end to end, reports the chaos table, writes a complete JSON report
// and passes the isolation gate.
func TestAuditChaosGatePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos campaign is slow under -short")
	}
	var out, errb bytes.Buffer
	rep := filepath.Join(t.TempDir(), "rep.json")
	code := run([]string{
		"-rounds", "10", "-rates", "0", "-modes", "strict",
		"-chaos", "all", "-parallel", "4", "-json", rep,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Chaos campaign") {
		t.Error("chaos table missing from output")
	}
	if !strings.Contains(errb.String(), "isolation gate passed") {
		t.Errorf("gate verdict missing from stderr:\n%s", errb.String())
	}
	b, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) == 0 {
		t.Error("report holds no cells")
	}
}

// TestCampaignGolden pins the campaign's bytes: one grid holding every cell
// family must reproduce the committed BENCH_campaign.json report and
// BENCH_campaign.txt tables exactly, run serially and on four workers. The
// serial flags are the Makefile's CAMPAIGN_FLAGS; refresh both files with
// `make campaign-json`.
func TestCampaignGolden(t *testing.T) {
	wantJSON, err := os.ReadFile("../../BENCH_campaign.json")
	if err != nil {
		t.Fatalf("reading committed golden: %v", err)
	}
	wantText, err := os.ReadFile("../../BENCH_campaign.txt")
	if err != nil {
		t.Fatalf("reading committed golden: %v", err)
	}
	for _, workers := range []int{1, 4} {
		t.Run("parallel="+strconv.Itoa(workers), func(t *testing.T) {
			var out, errb bytes.Buffer
			rep := filepath.Join(t.TempDir(), "rep.json")
			code := run([]string{
				"-seed", "5", "-rounds", "24", "-rates", "0,0.01", "-modes", "strict,riommu", "-cores", "2",
				"-chaos", "all", "-intchaos", "all", "-hotplug", "all", "-tenants", "3", "-churn", "2000",
				"-parallel", strconv.Itoa(workers), "-json", rep,
			}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
			}
			gotJSON, err := os.ReadFile(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("report drifted from BENCH_campaign.json (%d vs %d bytes); "+
					"if intentional refresh with `make campaign-json`", len(gotJSON), len(wantJSON))
			}
			if got := out.Bytes(); !bytes.Equal(got, wantText) {
				t.Errorf("tables drifted from BENCH_campaign.txt (%d vs %d bytes); "+
					"if intentional refresh with `make campaign-json`", len(got), len(wantText))
			}
		})
	}
}

// TestChurnRunIsGated: churn cells are always audited, so a -churn run
// without -audit still enforces the isolation gate, and prints no verdict
// for the gates that have no cell to judge.
func TestChurnRunIsGated(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-rounds", "8", "-rates", "0", "-modes", "strict", "-churn", "2000", "-parallel", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "isolation gate passed") {
		t.Errorf("isolation gate verdict missing from stderr:\n%s", errb.String())
	}
	if strings.Contains(errb.String(), "interrupt gate") || strings.Contains(errb.String(), "cross-tenant gate") {
		t.Errorf("verdict printed for a gate with no cell to judge:\n%s", errb.String())
	}
}

// TestBadChaosFlag: unknown scenarios, a NaN rate and fewer than one round
// are usage errors.
func TestBadChaosFlag(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-chaos", "nonsense"},
		{"-intchaos", "nonsense"},
		{"-hotplug", "nonsense"},
		{"-rates", "NaN", "-modes", "strict", "-rounds", "6"},
		{"-rounds", "0"},
		{"-rounds", "-3"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestIntChaosHotplugGatePasses: the -intchaos/-hotplug flags (implying
// -audit) run hostile-MSI and topology-churn cells across all presentation
// modes, report both new tables, write a complete JSON report, and pass
// both the isolation gate and the interrupt gate.
func TestIntChaosHotplugGatePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full interrupt/hot-plug campaign is slow under -short")
	}
	var out, errb bytes.Buffer
	rep := filepath.Join(t.TempDir(), "rep.json")
	code := run([]string{
		"-rounds", "12", "-rates", "0", "-modes", "strict",
		"-intchaos", "all", "-hotplug", "all", "-parallel", "4", "-json", rep,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Interrupt chaos campaign") {
		t.Error("interrupt chaos table missing from output")
	}
	if !strings.Contains(out.String(), "Hot-plug campaign") {
		t.Error("hot-plug table missing from output")
	}
	if !strings.Contains(errb.String(), "isolation gate passed") {
		t.Errorf("isolation gate verdict missing from stderr:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "interrupt gate passed") {
		t.Errorf("interrupt gate verdict missing from stderr:\n%s", errb.String())
	}
	b, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Cells []struct {
			ID      string             `json:"cell"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	var sawInt, sawPlug bool
	for _, c := range r.Cells {
		if strings.Contains(c.ID, "intchaos=") {
			sawInt = true
			if _, ok := c.Metrics["int_blocked"]; !ok {
				t.Errorf("%s: int_blocked metric missing", c.ID)
			}
		}
		if strings.Contains(c.ID, "hotplug=") {
			sawPlug = true
			if _, ok := c.Metrics["mttr_cycles"]; !ok {
				t.Errorf("%s: mttr_cycles metric missing", c.ID)
			}
		}
	}
	if !sawInt || !sawPlug {
		t.Errorf("report missing new cell kinds: intchaos=%v hotplug=%v", sawInt, sawPlug)
	}
}
