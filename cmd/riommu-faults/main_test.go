package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"riommu/internal/parallel"
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
		Interrupted bool `json:"interrupted"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.Interrupted {
		t.Error("complete run marked interrupted")
	}
}

// TestCampaignGolden pins the campaign's bytes: one serial grid holding
// every cell family must reproduce the committed BENCH_campaign.json report
// and BENCH_campaign.txt tables exactly. The flags are the Makefile's
// CAMPAIGN_FLAGS; refresh both files with `make campaign-json`.
func TestCampaignGolden(t *testing.T) {
	wantJSON, err := os.ReadFile("../../BENCH_campaign.json")
	if err != nil {
		t.Fatalf("reading committed golden: %v", err)
	}
	wantText, err := os.ReadFile("../../BENCH_campaign.txt")
	if err != nil {
		t.Fatalf("reading committed golden: %v", err)
	}
	var out, errb bytes.Buffer
	rep := filepath.Join(t.TempDir(), "rep.json")
	code := run([]string{
		"-seed", "5", "-rounds", "24", "-rates", "0,0.01", "-modes", "strict,riommu", "-cores", "2",
		"-chaos", "all", "-intchaos", "all", "-hotplug", "all", "-tenants", "3", "-churn", "2000",
		"-parallel", "1", "-json", rep,
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
}

// TestInterruptFlushesPartialReport: an interrupt mid-campaign yields exit
// 130 and a valid partial JSON report marked "interrupted": true.
func TestInterruptFlushesPartialReport(t *testing.T) {
	defer parallel.ResetInterrupt()
	var out, errb bytes.Buffer
	rep := filepath.Join(t.TempDir(), "rep.json")
	go func() {
		time.Sleep(50 * time.Millisecond)
		parallel.Interrupt()
	}()
	code := run([]string{"-rounds", "400", "-parallel", "2", "-json", rep}, &out, &errb)
	if code != 130 {
		t.Fatalf("exit %d, want 130\nstderr:\n%s", code, errb.String())
	}
	b, err := os.ReadFile(rep)
	if err != nil {
		t.Fatalf("partial report not written: %v", err)
	}
	var r struct {
		Interrupted bool `json:"interrupted"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("partial report is not valid JSON: %v", err)
	}
	if !r.Interrupted {
		t.Error("partial report not marked interrupted")
	}
}

// TestSignalSetsInterrupt: a real SIGINT delivered to the process trips the
// worker pool's cooperative cancellation flag.
func TestSignalSetsInterrupt(t *testing.T) {
	parallel.ResetInterrupt()
	stop := notifyInterrupt()
	defer stop()
	defer parallel.ResetInterrupt()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !parallel.Interrupted() {
		if time.Now().After(deadline) {
			t.Fatal("SIGINT never reached the interrupt flag")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointResumeAfterInterrupt is the sharded-runtime acceptance
// check: kill the campaign mid-grid, re-run with -checkpoint, and the final
// -json report must be byte-identical to an uninterrupted serial run.
func TestCheckpointResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	serialRep := filepath.Join(dir, "serial.json")
	resumedRep := filepath.Join(dir, "resumed.json")
	ckpt := filepath.Join(dir, "grid.ckpt")
	flags := func(rep string, extra ...string) []string {
		return append([]string{
			"-rounds", "400", "-rates", "0,0.01", "-modes", "strict,riommu",
			"-parallel", "1", "-json", rep,
		}, extra...)
	}

	var out, errb bytes.Buffer
	if code := run(flags(serialRep), &out, &errb); code != 0 {
		t.Fatalf("serial run: exit %d\nstderr:\n%s", code, errb.String())
	}

	// First pass: interrupt mid-grid. Whatever subset of cells completed is
	// in the checkpoint; the resume must fill in exactly the rest. (The full
	// grid takes ~100 ms serial, so the signal lands mid-grid; if scheduling
	// ever lets the run win the race, the resume is a no-op and the
	// byte-identity assertion still holds.)
	go func() {
		time.Sleep(25 * time.Millisecond)
		parallel.Interrupt()
	}()
	out.Reset()
	errb.Reset()
	code := run(flags(resumedRep, "-checkpoint", ckpt), &out, &errb)
	if code != 130 && code != 0 {
		t.Fatalf("interrupted run: exit %d\nstderr:\n%s", code, errb.String())
	}
	parallel.ResetInterrupt()

	out.Reset()
	errb.Reset()
	if code := run(flags(resumedRep, "-checkpoint", ckpt), &out, &errb); code != 0 {
		t.Fatalf("resumed run: exit %d\nstderr:\n%s", code, errb.String())
	}

	want, err := os.ReadFile(serialRep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumedRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed report differs from the uninterrupted serial run")
	}
}

// TestShardedGridRenders: shard passes over one checkpoint file; the shard
// that completes the grid renders the full report, earlier shards exit 0
// with a progress summary only.
func TestShardedGridRenders(t *testing.T) {
	dir := t.TempDir()
	serialRep := filepath.Join(dir, "serial.json")
	shardRep := filepath.Join(dir, "shard.json")
	ckpt := filepath.Join(dir, "grid.ckpt")
	base := []string{"-rounds", "6", "-rates", "0", "-modes", "strict,riommu", "-parallel", "1"}

	var out, errb bytes.Buffer
	if code := run(append(base, "-json", serialRep), &out, &errb); code != 0 {
		t.Fatalf("serial run: exit %d\nstderr:\n%s", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run(append(base, "-json", shardRep, "-shard", "0/2", "-checkpoint", ckpt), &out, &errb); code != 0 {
		t.Fatalf("shard 0/2: exit %d\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "shard 0/2 done") {
		t.Errorf("shard 0/2 summary missing from stderr:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Error("incomplete shard rendered tables")
	}
	if _, err := os.Stat(shardRep); err == nil {
		t.Error("incomplete shard wrote a -json report")
	}

	out.Reset()
	errb.Reset()
	if code := run(append(base, "-json", shardRep, "-shard", "1/2", "-checkpoint", ckpt), &out, &errb); code != 0 {
		t.Fatalf("shard 1/2: exit %d\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "NIC campaign") {
		t.Error("final shard did not render the campaign tables")
	}

	want, err := os.ReadFile(serialRep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(shardRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("sharded report differs from the serial run")
	}

	// A sharded run without a checkpoint is refused up front.
	out.Reset()
	errb.Reset()
	if code := run(append(base, "-shard", "0/2"), &out, &errb); code != 1 {
		t.Errorf("shard without checkpoint: exit %d, want 1", code)
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

// TestBadChaosFlag: unknown scenarios are a usage error.
func TestBadChaosFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-chaos", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-intchaos", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("-intchaos nonsense: exit %d, want 2", code)
	}
	if code := run([]string{"-hotplug", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("-hotplug nonsense: exit %d, want 2", code)
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
		Interrupted bool `json:"interrupted"`
		Cells       []struct {
			ID      string             `json:"cell"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.Interrupted {
		t.Error("complete run marked interrupted")
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
