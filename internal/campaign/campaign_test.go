package campaign

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"riommu/internal/audit"
	"riommu/internal/chaos"
	"riommu/internal/faults"
	"riommu/internal/sim"
)

func testOptions(workers int) Options {
	return Options{
		Seed:    42,
		Rates:   []float64{0, 0.01},
		Modes:   []sim.Mode{sim.Strict, sim.RIOMMU},
		Rounds:  25,
		Workers: workers,
	}
}

// TestSerialParallelEquivalence: the campaign's rendered tables and JSON
// report are byte-identical for any worker count, including the fault-path
// cells where per-cell seeding is what keeps the injected streams stable.
func TestSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep is slow under -short")
	}
	run := func(workers int) (string, []byte) {
		res, err := Run(testOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := MarshalReport(BuildReport(res))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Render(), j
	}
	wantText, wantJSON := run(1)
	if !strings.Contains(wantText, "NIC campaign") || !strings.Contains(wantText, "Block-device campaign") {
		t.Fatalf("rendered campaign missing expected tables:\n%s", wantText)
	}
	for _, workers := range []int{2, 8} {
		gotText, gotJSON := run(workers)
		if gotText != wantText {
			t.Errorf("workers=%d: rendered text differs from serial", workers)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("workers=%d: JSON report differs from serial", workers)
		}
	}
}

// TestGridOrder: the grid is the canonical cell order — NIC anchors and
// sweeps first, then the block devices — and cell identities are unique
// (CellSeed derives per-cell fault streams from them).
func TestGridOrder(t *testing.T) {
	opts := testOptions(1)
	keys := opts.Grid()
	wantLen := len(opts.Modes)*(1+len(opts.Rates)) + 2*len(opts.Modes)*len(opts.Rates)
	if len(keys) != wantLen {
		t.Fatalf("grid has %d cells, want %d", len(keys), wantLen)
	}
	if !keys[0].Clean || keys[0].Device != "nic" || keys[0].Mode != sim.Strict {
		t.Fatalf("grid must start with the strict NIC anchor, got %s", keys[0])
	}
	seen := map[string]bool{}
	sawBlock := false
	for _, k := range keys {
		id := k.String()
		if seen[id] {
			t.Errorf("duplicate cell identity %q", id)
		}
		seen[id] = true
		if k.Device != "nic" {
			sawBlock = true
		} else if sawBlock {
			t.Errorf("NIC cell %s after block cells: grid order violated", id)
		}
	}
}

// TestFaultCellsInject: non-zero rates actually exercise the recovery layer,
// so the equivalence test above covers fault-campaign output, not just clean
// runs.
func TestFaultCellsInject(t *testing.T) {
	res, err := Run(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	var injected, recovered uint64
	for i, k := range res.Keys {
		c := res.Cells[i]
		if k.Clean || k.Rate == 0 {
			if c.Injected != 0 {
				t.Errorf("%s: clean cell injected %d faults", k, c.Injected)
			}
			continue
		}
		injected += c.Injected
		recovered += c.Recovery.Recoveries
		if c.Recovery.Unrecovered != 0 {
			t.Errorf("%s: %d unrecovered faults", k, c.Recovery.Unrecovered)
		}
	}
	if injected == 0 {
		t.Error("fault cells injected nothing; campaign is not testing recovery")
	}
	if recovered == 0 {
		t.Error("no recoveries recorded across fault cells")
	}
}

// TestWorstFaultCellsBoundedAlloc: the heaviest fault cells, four queues
// at a 5% rate, stay bounded in host memory. An injected fault can flip a
// Tx descriptor's length to gigabytes; the device reads such a payload
// without a buffer (dma.(*Engine).ReadDiscard), so the length costs no
// host memory. Copying it into a buffer of that length allocated 334 MB
// in these ten rounds, and 4.9 GB in twenty.
func TestWorstFaultCellsBoundedAlloc(t *testing.T) {
	const ceiling = 32 << 20 // bytes; the cells allocate about 10 MB
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(Options{Seed: 42, Rates: []float64{0.05}, Modes: SafeModes, Rounds: 10, Workers: 1, Cores: []int{4}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var injected uint64
	for _, c := range res.Cells {
		injected += c.Injected
	}
	if injected == 0 {
		t.Fatal("the cells injected no faults")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > ceiling {
		t.Errorf("the -rates 0.05 -cores 4 cells allocate %.1f MB, want at most %d MB", float64(n)/(1<<20), ceiling>>20)
	}
}

func chaosOptions(workers int) Options {
	o := testOptions(workers)
	o.Audit = true
	o.Chaos = chaos.Scenarios()
	return o
}

// TestChaosSerialParallelEquivalence: the audited chaos campaign — oracle,
// hostile device, breaker, SLO ledger and all — stays byte-identical across
// worker counts.
func TestChaosSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker chaos sweep is slow under -short")
	}
	run := func(workers int) (string, []byte) {
		res, err := Run(chaosOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := MarshalReport(BuildReport(res))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Render(), j
	}
	wantText, wantJSON := run(1)
	if !strings.Contains(wantText, "Chaos campaign") {
		t.Fatalf("rendered campaign missing chaos table:\n%s", wantText)
	}
	for _, workers := range []int{2, 8} {
		gotText, gotJSON := run(workers)
		if gotText != wantText {
			t.Errorf("workers=%d: rendered chaos text differs from serial", workers)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("workers=%d: chaos JSON report differs from serial", workers)
		}
	}
}

// TestChaosAsymmetry: the central claim the audit quantifies — under stale
// replay the deferred modes leak (non-zero, seed-deterministic violation
// counts) while the gap-free modes stay at exactly zero; sub-page overreach
// lands under page-granular baseline protection but never under rIOMMU.
func TestChaosAsymmetry(t *testing.T) {
	res, err := Run(Options{
		Seed:    42,
		Modes:   []sim.Mode{sim.Strict},
		Rates:   []float64{0},
		Rounds:  25,
		Workers: 4,
		Audit:   true,
		Chaos:   chaos.Scenarios(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var deferStale uint64
	for i, k := range res.Keys {
		c := res.Cells[i]
		if k.Family != Chaos {
			continue
		}
		// inv-flood pressures the invalidation path with legitimate map/unmap
		// churn rather than hostile DMAs, so it records no attack attempts.
		if c.Chaos.Attempts == 0 && k.Scenario != string(chaos.Cascade) && k.Scenario != string(chaos.InvFlood) {
			t.Errorf("%s: hostile device never attacked", k)
		}
		switch k.Scenario {
		case string(chaos.StaleReplay):
			if k.Mode == sim.Defer || k.Mode == sim.DeferPlus {
				deferStale += c.ByReason[audit.ReasonStale]
				if c.Violations == 0 {
					t.Errorf("%s: deferred invalidation showed no stale window", k)
				}
			} else if k.Mode.Safe() && c.Violations != 0 {
				t.Errorf("%s: %d violations in a gap-free mode", k, c.Violations)
			}
		case string(chaos.Overreach):
			switch k.Mode {
			case sim.RIOMMU, sim.RIOMMUMinus:
				if c.Violations != 0 || c.Chaos.Landed != 0 {
					t.Errorf("%s: rIOMMU let overreach land (viol=%d landed=%d)", k, c.Violations, c.Chaos.Landed)
				}
			case sim.Strict, sim.StrictPlus:
				if c.ByReason[audit.ReasonBounds] == 0 {
					t.Errorf("%s: page-granular mode contained sub-page overreach?", k)
				}
			}
		case string(chaos.ROWrite):
			if k.Mode.Safe() && c.Violations != 0 {
				t.Errorf("%s: read-only write violated isolation", k)
			}
		}
	}
	if deferStale == 0 {
		t.Error("no stale violations across defer stale-replay cells")
	}
	if fails := res.AuditViolationsGate(); len(fails) != 0 {
		t.Errorf("gate failed on a healthy campaign: %v", fails)
	}
}

// TestAuditViolationsGateCatches: the gate flags safe-mode violations and a
// silent (dead) auditor, and ignores cascade/fault-rate cells.
func TestAuditViolationsGateCatches(t *testing.T) {
	mk := func(k Key, c CellMetrics) Result {
		return Result{Keys: []Key{k}, Cells: []CellMetrics{c}}
	}
	bad := mk(Key{Family: Chaos, Device: "nic", Mode: sim.Strict, Scenario: string(chaos.StaleReplay)},
		CellMetrics{Audited: true, Violations: 3, ByReason: map[string]uint64{audit.ReasonStale: 3}})
	if fails := bad.AuditViolationsGate(); len(fails) != 1 {
		t.Errorf("safe-mode violations not flagged: %v", fails)
	}
	dead := mk(Key{Family: Chaos, Device: "nic", Mode: sim.Defer, Scenario: string(chaos.StaleReplay)},
		CellMetrics{Audited: true, ByReason: map[string]uint64{}})
	if fails := dead.AuditViolationsGate(); len(fails) != 1 {
		t.Errorf("dead auditor not flagged: %v", fails)
	}
	cascade := mk(Key{Family: Chaos, Device: "nic", Mode: sim.Strict, Scenario: string(chaos.Cascade)},
		CellMetrics{Audited: true, Violations: 7})
	if fails := cascade.AuditViolationsGate(); len(fails) != 0 {
		t.Errorf("cascade cell wrongly gated: %v", fails)
	}
	rated := mk(Key{Device: "nic", Mode: sim.Strict, Rate: 0.01},
		CellMetrics{Audited: true, Violations: 2})
	if fails := rated.AuditViolationsGate(); len(fails) != 0 {
		t.Errorf("fault-injection cell wrongly gated: %v", fails)
	}
	churn := mk(Key{Family: Churn, Device: "nic", Mode: sim.RIOMMU, N: 2000},
		CellMetrics{Audited: true, Violations: 1})
	if fails := churn.AuditViolationsGate(); len(fails) != 1 {
		t.Errorf("churn-cell violation not flagged: %v", fails)
	}
	overreachBase := mk(Key{Family: Chaos, Device: "nic", Mode: sim.Strict, Scenario: string(chaos.Overreach)},
		CellMetrics{Audited: true, Violations: 5, ByReason: map[string]uint64{audit.ReasonBounds: 5}})
	if fails := overreachBase.AuditViolationsGate(); len(fails) != 0 {
		t.Errorf("baseline overreach wrongly gated (page granularity cannot contain it): %v", fails)
	}
	overreachR := mk(Key{Family: Chaos, Device: "nic", Mode: sim.RIOMMU, Scenario: string(chaos.Overreach)},
		CellMetrics{Audited: true, Violations: 1, ByReason: map[string]uint64{audit.ReasonBounds: 1}})
	if fails := overreachR.AuditViolationsGate(); len(fails) != 1 {
		t.Errorf("rIOMMU overreach violation not flagged: %v", fails)
	}
}

// TestAuditedLegacyMetricsUnchanged: enabling the oracle must not move a
// single legacy metric — audited campaigns stay comparable to historical
// unaudited ones.
func TestAuditedLegacyMetricsUnchanged(t *testing.T) {
	plain, err := Run(testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(2)
	opts.Audit = true
	audited, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range plain.Keys {
		p, a := plain.Cells[i], audited.Cells[i]
		if p.Injected != a.Injected || p.CyclesPerOp != a.CyclesPerOp ||
			p.Gbps != a.Gbps || p.Recovery != a.Recovery || p.RecoveryCycles != a.RecoveryCycles {
			t.Errorf("%s: legacy metrics moved under audit:\nplain   %+v\naudited %+v", k, p, a)
		}
		if !a.Audited || a.Checked == 0 {
			t.Errorf("%s: audited cell has no audit data", k)
		}
	}
}

func intHotplugOptions(workers int) Options {
	return Options{
		Seed:     42,
		Rates:    []float64{0},
		Modes:    []sim.Mode{sim.Strict},
		Rounds:   24,
		Workers:  workers,
		Audit:    true,
		IntChaos: chaos.IntScenarios(),
		Hotplug:  HotplugScenarios(),
	}
}

// TestIntHotplugSerialParallelEquivalence: the interrupt-chaos and hot-plug
// sweeps — lifecycle churn, remapper, oracle, SLO ledger — stay
// byte-identical across worker counts.
func TestIntHotplugSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep is slow under -short")
	}
	run := func(workers int) (string, []byte) {
		res, err := Run(intHotplugOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := MarshalReport(BuildReport(res))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Render(), j
	}
	wantText, wantJSON := run(1)
	if !strings.Contains(wantText, "Interrupt chaos campaign") || !strings.Contains(wantText, "Hot-plug campaign") {
		t.Fatalf("rendered campaign missing interrupt/hot-plug tables:\n%s", wantText)
	}
	for _, workers := range []int{2, 8} {
		gotText, gotJSON := run(workers)
		if gotText != wantText {
			t.Errorf("workers=%d: rendered text differs from serial", workers)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("workers=%d: JSON report differs from serial", workers)
		}
	}
}

// TestIntChaosAsymmetry: the interrupt analog of TestChaosAsymmetry — the
// remapped modes block every hostile MSI, the deferred modes leak stale
// deliveries exactly in the irte-replay cells, and pass-through (none) lands
// attacks without the oracle crying wolf.
func TestIntChaosAsymmetry(t *testing.T) {
	res, err := Run(intHotplugOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	var deferStale uint64
	for i, k := range res.Keys {
		c := res.Cells[i]
		if k.Family != IntChaos {
			continue
		}
		deferMode := k.Mode == sim.Defer || k.Mode == sim.DeferPlus
		switch k.Scenario {
		case string(chaos.VectorStorm), string(chaos.SpoofBDF):
			if k.Mode == sim.None {
				if c.Chaos.Attempts > 0 && c.Chaos.Landed == 0 && k.Scenario == string(chaos.VectorStorm) {
					t.Errorf("%s: unremapped mode blocked a storm?", k)
				}
				if c.IntViolations != 0 {
					t.Errorf("%s: oracle judged a pass-through mode", k)
				}
				continue
			}
			if c.Chaos.Attempts == 0 && k.Scenario == string(chaos.VectorStorm) {
				t.Errorf("%s: hostile MSI source never fired", k)
			}
			if c.Chaos.Landed != 0 || c.IntViolations != 0 {
				t.Errorf("%s: hostile MSIs landed (landed=%d viol=%d)", k, c.Chaos.Landed, c.IntViolations)
			}
		case string(chaos.IRTEReplay):
			if deferMode {
				deferStale += c.IntByReason[audit.IntReasonStale]
				if c.Chaos.Landed == 0 {
					t.Errorf("%s: deferred IEC showed no stale window", k)
				}
			} else if k.Mode != sim.None && (c.Chaos.Landed != 0 || c.IntViolations != 0) {
				t.Errorf("%s: replay landed under synchronous invalidation (landed=%d viol=%d)", k, c.Chaos.Landed, c.IntViolations)
			}
		}
		if c.IntDelivered == 0 && k.Mode != sim.None {
			t.Errorf("%s: workload delivered no legitimate interrupts", k)
		}
	}
	if deferStale == 0 {
		t.Error("no stale deliveries across defer irte-replay cells")
	}
	if fails := res.IntremapViolationsGate(); len(fails) != 0 {
		t.Errorf("gate failed on a healthy campaign: %v", fails)
	}
	if fails := res.AuditViolationsGate(); len(fails) != 0 {
		t.Errorf("DMA gate failed: %v", fails)
	}
}

// TestHotplugCells: every hot-plug cell churns the lifecycle with a finite
// MTTR per removal, silent ghosts, and (under protection) zero pre-attach
// DMA landings.
func TestHotplugCells(t *testing.T) {
	res, err := Run(intHotplugOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range res.Keys {
		c := res.Cells[i]
		if k.Family != Hotplug {
			continue
		}
		if c.Attaches == 0 {
			t.Errorf("%s: no attaches recorded", k)
		}
		if c.GhostDeliveries != 0 {
			t.Errorf("%s: removed device delivered %d interrupts", k, c.GhostDeliveries)
		}
		switch k.Scenario {
		case HotplugAttachStorm:
			if c.Removals < 6 || c.Outages != c.Removals || c.MTTRCycles <= 0 {
				t.Errorf("%s: removals=%d outages=%d mttr=%.0f", k, c.Removals, c.Outages, c.MTTRCycles)
			}
		case HotplugDMAEarly:
			if c.Chaos.Attempts == 0 {
				t.Errorf("%s: no early DMA attempted", k)
			}
			if k.Mode != sim.None && c.Chaos.Landed != 0 {
				t.Errorf("%s: %d pre-attach DMAs landed", k, c.Chaos.Landed)
			}
			if k.Mode == sim.None && c.Chaos.Landed == 0 {
				t.Errorf("%s: unprotected mode faulted early DMA?", k)
			}
		case HotplugSurprise:
			if c.Removals != 1 || c.Quarantines != 1 || c.Outages != 1 || c.MTTRCycles <= 0 {
				t.Errorf("%s: removals=%d quar=%d outages=%d mttr=%.0f", k, c.Removals, c.Quarantines, c.Outages, c.MTTRCycles)
			}
		}
		if k.Mode != sim.None && c.IntViolations != 0 {
			t.Errorf("%s: %d interrupt violations under topology churn", k, c.IntViolations)
		}
	}
}

// TestIntremapGateCatches: the interrupt gate flags delivered violations,
// silent remappers, ghost deliveries, broken SLO ledgers, and a dead stale
// window — and ignores mode none.
func TestIntremapGateCatches(t *testing.T) {
	mk := func(k Key, c CellMetrics) Result {
		return Result{Keys: []Key{k}, Cells: []CellMetrics{c}}
	}
	viol := mk(Key{Family: IntChaos, Device: "nic", Mode: sim.Strict, Scenario: string(chaos.SpoofBDF)},
		CellMetrics{IntViolations: 2, IntBlocked: 5, Chaos: chaos.Stats{Attempts: 5}})
	if fails := viol.IntremapViolationsGate(); len(fails) != 1 {
		t.Errorf("delivered violations not flagged: %v", fails)
	}
	asleep := mk(Key{Family: IntChaos, Device: "nic", Mode: sim.RIOMMU, Scenario: string(chaos.VectorStorm)},
		CellMetrics{Chaos: chaos.Stats{Attempts: 10, Landed: 10}})
	if fails := asleep.IntremapViolationsGate(); len(fails) != 1 {
		t.Errorf("sleeping remapper not flagged: %v", fails)
	}
	dead := mk(Key{Family: IntChaos, Device: "nic", Mode: sim.Defer, Scenario: string(chaos.IRTEReplay)},
		CellMetrics{IntByReason: map[string]uint64{}})
	if fails := dead.IntremapViolationsGate(); len(fails) != 1 {
		t.Errorf("dead stale window not flagged: %v", fails)
	}
	ghost := mk(Key{Family: Hotplug, Device: "nic", Mode: sim.Strict, Scenario: HotplugSurprise},
		CellMetrics{GhostDeliveries: 1, Removals: 1, Outages: 1, MTTRCycles: 100})
	if fails := ghost.IntremapViolationsGate(); len(fails) != 1 {
		t.Errorf("ghost delivery not flagged: %v", fails)
	}
	noMTTR := mk(Key{Family: Hotplug, Device: "nic", Mode: sim.Strict, Scenario: HotplugAttachStorm},
		CellMetrics{Removals: 3, Outages: 2, MTTRCycles: 50})
	if fails := noMTTR.IntremapViolationsGate(); len(fails) != 1 {
		t.Errorf("incomplete SLO ledger not flagged: %v", fails)
	}
	early := mk(Key{Family: Hotplug, Device: "nic", Mode: sim.RIOMMU, Scenario: HotplugDMAEarly},
		CellMetrics{Chaos: chaos.Stats{Attempts: 4, Landed: 4}})
	if fails := early.IntremapViolationsGate(); len(fails) != 1 {
		t.Errorf("early DMA landing not flagged: %v", fails)
	}
	none := mk(Key{Family: IntChaos, Device: "nic", Mode: sim.None, Scenario: string(chaos.VectorStorm)},
		CellMetrics{Chaos: chaos.Stats{Attempts: 10, Landed: 10}})
	if fails := none.IntremapViolationsGate(); len(fails) != 0 {
		t.Errorf("mode none wrongly gated: %v", fails)
	}
}

func TestParseHotplug(t *testing.T) {
	all, err := ParseHotplug("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("all: %v %v", all, err)
	}
	one, err := ParseHotplug(" surprise-remove ")
	if err != nil || len(one) != 1 || one[0] != HotplugSurprise {
		t.Fatalf("single: %v %v", one, err)
	}
	if _, err := ParseHotplug("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestParseModes(t *testing.T) {
	ms, err := ParseModes("strict, riommu")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] != sim.Strict || ms[1] != sim.RIOMMU {
		t.Fatalf("got %v", ms)
	}
	if _, err := ParseModes("defer"); err == nil {
		t.Error("deferred modes are unsafe for the campaign; ParseModes must reject them")
	}
	if _, err := ParseModes("nosuch"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestParseRates(t *testing.T) {
	rs, err := ParseRates("0, 0.01,0.05")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[2] != 0.05 {
		t.Fatalf("got %v", rs)
	}
	if _, err := ParseRates("1.5"); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := ParseRates("x"); err == nil {
		t.Error("non-numeric rate accepted")
	}
	if _, err := ParseRates("NaN"); err == nil {
		t.Error("NaN rate accepted")
	}
}

// TestPartialReportDropsUnfinishedCells: a Result with an unfinished cell
// (one whose run failed) builds a report holding only real measurements,
// and the gate skips the unfinished cell too.
func TestPartialReportDropsUnfinishedCells(t *testing.T) {
	r := Result{
		Opts: Options{Seed: 7, Rounds: 3},
		Keys: []Key{
			{Device: "nic", Mode: sim.Strict, Clean: true},
			{Family: Chaos, Device: "nic", Mode: sim.Defer, Scenario: string(chaos.StaleReplay)},
		},
		Cells:     []CellMetrics{{CyclesPerOp: 12}, {}},
		Completed: []bool{true, false},
	}
	rep := BuildReport(r)
	if len(rep.Cells) != 1 || rep.Cells[0].ID != r.Keys[0].String() {
		t.Fatalf("report cells = %+v, want only the completed cell", rep.Cells)
	}
	// The unfinished defer stale-replay cell must not trip the liveness gate.
	if fails := r.AuditViolationsGate(); len(fails) != 0 {
		t.Errorf("gate flagged unfinished cells: %v", fails)
	}
}

// TestRenderNICTableHoldsBaseCells: the NIC table and its by-class total
// cover only the base family's NIC rate cells, however many other families
// share the grid. The Result is built from the grid alone, without running
// a cell: every cell counts one fault of every class.
func TestRenderNICTableHoldsBaseCells(t *testing.T) {
	o := Options{
		Rates: []float64{0, 0.01}, Modes: []sim.Mode{sim.Strict, sim.RIOMMU}, Cores: []int{2},
		Chaos: chaos.Scenarios(), IntChaos: chaos.IntScenarios(), Hotplug: HotplugScenarios(),
		Tenants: []int{3}, Churn: []int{2000},
	}
	keys := o.Grid()
	r := Result{Opts: o, Keys: keys, Cells: make([]CellMetrics, len(keys))}
	for i := range r.Cells {
		r.Cells[i].ByClass = map[string]uint64{}
		for _, cl := range faults.Classes() {
			r.Cells[i].ByClass[cl.String()] = 1
		}
	}
	tables := strings.Split(r.Render(), "\n\n")
	want := len(o.Modes) * len(o.Rates)
	// Each table is a title, a header and a rule, then one line per row.
	nic := strings.Split(tables[0], "\n")
	if !strings.HasPrefix(nic[0], "NIC campaign") {
		t.Fatalf("first table is %q, want the NIC campaign", nic[0])
	}
	if got := len(nic) - 3; got != want {
		t.Errorf("NIC table has %d rows, want %d (modes x rates):\n%s", got, want, tables[0])
	}
	byClass := strings.Split(tables[1], "\n")
	if got := len(byClass) - 3; got != len(faults.Classes()) {
		t.Fatalf("by-class table has %d rows, want %d:\n%s", got, len(faults.Classes()), tables[1])
	}
	for _, row := range byClass[3:] {
		if f := strings.Fields(row); len(f) != 2 || f[1] != strconv.Itoa(want) {
			t.Errorf("by-class row %q: want a total of %d", row, want)
		}
	}
}
