package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"riommu/internal/parallel"
)

// TestInterruptFlushesPartialReport: an interrupt mid-run yields exit 130
// and a valid partial JSON report marked "interrupted": true containing
// only the experiments that finished.
func TestInterruptFlushesPartialReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment prefix; slow under -short")
	}
	defer parallel.ResetInterrupt()
	var out, errb bytes.Buffer
	rep := filepath.Join(t.TempDir(), "rep.json")
	go func() {
		time.Sleep(50 * time.Millisecond)
		parallel.Interrupt()
	}()
	code := run([]string{"-quality", "quick", "-parallel", "2", "-json", rep}, &out, &errb)
	if code != 130 {
		t.Fatalf("exit %d, want 130\nstderr:\n%s", code, errb.String())
	}
	b, err := os.ReadFile(rep)
	if err != nil {
		t.Fatalf("partial report not written: %v", err)
	}
	var r struct {
		Interrupted bool `json:"interrupted"`
		Experiments []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("partial report is not valid JSON: %v", err)
	}
	if !r.Interrupted {
		t.Error("partial report not marked interrupted")
	}
}

// TestShardMergeByteIdentical: splitting a selection across -shard runs and
// folding the per-shard -json reports back together with -merge must produce
// the same bytes as one unsharded run. The selection is listed in registry
// (ID-sorted) order because that is the order -merge restores. The
// unsharded run reuses table1's cells from figure7; shard 1/2 runs table1
// without figure7 and computes them itself.
func TestShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; slow under -short")
	}
	dir := t.TempDir()
	sel := "figure7,misspenalty,pathology,table1,table3"
	full := filepath.Join(dir, "full.json")
	shard0 := filepath.Join(dir, "shard0.json")
	shard1 := filepath.Join(dir, "shard1.json")
	merged := filepath.Join(dir, "merged.json")

	// table1Reused matches table1's stderr timing line with the number of
	// cells it reused.
	table1Reused := func(n int) *regexp.Regexp {
		return regexp.MustCompile(fmt.Sprintf(`(?m)^riommu-bench: table1 +[0-9.]+s +%d cell\(s\) reused$`, n))
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", sel, "-json", full}, &out, &errb); code != 0 {
		t.Fatalf("full run: exit %d\nstderr:\n%s", code, errb.String())
	}
	if !table1Reused(4).Match(errb.Bytes()) {
		t.Errorf("unsharded run: table1 did not reuse figure7's 4 cells\nstderr:\n%s", errb.String())
	}
	for i, rep := range []string{shard0, shard1} {
		out.Reset()
		errb.Reset()
		shard := []string{"-exp", sel, "-shard", []string{"0/2", "1/2"}[i], "-json", rep}
		if code := run(shard, &out, &errb); code != 0 {
			t.Fatalf("shard %d/2: exit %d\nstderr:\n%s", i, code, errb.String())
		}
	}
	if !table1Reused(0).Match(errb.Bytes()) {
		t.Errorf("shard 1/2: table1 did not compute its own cells\nstderr:\n%s", errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-merge", shard0 + "," + shard1, "-json", merged}, &out, &errb); code != 0 {
		t.Fatalf("merge: exit %d\nstderr:\n%s", code, errb.String())
	}

	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merged shard reports differ from the unsharded run")
	}

	// Merging the same shard twice would double-count experiments; refused.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-merge", shard0 + "," + shard0, "-json", merged}, &out, &errb); code != 1 {
		t.Errorf("duplicate shard merge: exit %d, want 1", code)
	}
}

// TestListUnaffectedByInterruptPlumbing: the trivial -list path still works
// with the signal handler installed.
func TestListUnaffectedByInterruptPlumbing(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
	}
	if out.Len() == 0 {
		t.Error("-list produced no output")
	}
}
