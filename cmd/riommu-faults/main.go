// Command riommu-faults runs deterministic fault-injection campaigns against
// the simulated systems: it sweeps fault rates across the safe protection
// modes (the strict baselines and both rIOMMU variants), drives supervised
// NIC / NVMe / SATA workloads through the injection window, and reports how
// the recovery layer held up — recovery success, cycles lost to recovery,
// and throughput degradation under the paper's performance model (§3.3).
//
// Usage:
//
//	riommu-faults [-seed N] [-rates r1,r2,...] [-modes m1,m2,...] [-rounds N]
//	              [-parallel N] [-json FILE] [-audit] [-chaos s1,s2,...|all]
//	              [-cores n1,n2,...] [-intchaos s1,s2,...|all] [-hotplug s1,s2,...|all]
//	              [-tenants n1,n2,...] [-tenantchaos s1,s2,...|all]
//	              [-churn n1,n2,...]
//
// -cores adds multi-queue scale-out cells: for each width > 1, every mode x
// rate combination soaks an MQNIC with that many queue pairs under one
// supervised recovery domain (the port recovers as a unit).
//
// -audit installs the shadow translation oracle in every cell: an
// independent record of the live mappings that verifies each DMA the
// devices perform, with zero effect on the measured virtual clocks.
//
// -chaos adds hostile-device cells (stale replay, overreach, read-only
// write, invalidation flood, cascade) across all protection modes including
// the deferred ones, quarantined by the supervisor's circuit breaker.
// -chaos implies -audit.
//
// -tenants adds multi-tenant two-stage cells: for each guest count >= 2,
// every hostile-tenant scenario (-tenantchaos, default all: stage-2 stale
// replay, GPA overreach, BDF spoofing, invalidation-queue flooding) runs
// against every presentation mode with that many guests sharing one
// hypervisor. Tenant 0 is hostile; the cross-tenant gate then requires
// zero cross-tenant accesses, the hostile tenant quarantined, and every
// victim tenant at exactly 100% availability — any miss fails the command.
//
// -churn adds fleet-traffic connection-churn cells: for each target
// connection count, every selected mode drives the internal/traffic engine
// (seeded open/close churn, mixed kernel/bypass fleet) with the shadow
// oracle attached, so the map/unmap storm regime is exercised and gated
// alongside the fault campaign.
//
// -intchaos adds hostile-MSI interrupt cells (unmapped-vector storms,
// spoofed-requester messages, stale-IRTE replay) across all seven
// presentation modes, judged by the interrupt shadow oracle. -hotplug adds
// topology-churn cells (attach storms, DMA before attach, surprise removal
// with state live) driving the device-lifecycle state machine. Both imply
// -audit and both are gated: a delivered interrupt the shadow table
// disowns, a ghost delivery after removal, or a surprise removal without a
// finite MTTR fails the command.
//
// Every number in the output is a pure function of the flags: each cell's
// fault engine is seeded from the base seed and the cell's identity, all
// backoff/watchdog time is virtual, and no wall clock or global randomness
// is consulted. Two runs with the same flags produce identical bytes for
// any -parallel value, which makes the campaign diffable across code
// changes.
//
// Each gate runs when the grid holds a cell it judges, and prints a verdict
// only then. The isolation gate judges every audited cell: every cell under
// -audit, and the chaos, intchaos, hotplug, tenant and churn cells always.
// Any violation in a gap-free mode outside the fault-injecting and cascade
// cells fails the command. The interrupt gate judges the -intchaos and
// -hotplug cells, the cross-tenant gate the -tenants cells.
//
// A bad flag value exits 2, a failed cell or gate exits 1. A run with a
// failed cell writes no -json report, so every report written is complete.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"riommu/internal/campaign"
	"riommu/internal/chaos"
	"riommu/internal/parallel"
	"riommu/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("riommu-faults", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 42, "base campaign seed (same seed => identical output)")
		rates    = fs.String("rates", "0,0.002,0.01,0.05", "comma-separated per-opportunity fault rates")
		modes    = fs.String("modes", "strict,strict+,riommu-,riommu", "comma-separated safe modes to sweep")
		rounds   = fs.Int("rounds", 150, "workload rounds per campaign cell")
		workers  = fs.Int("parallel", 0, "cell-level worker count (0 = GOMAXPROCS, 1 = serial)")
		jsonOut  = fs.String("json", "", "write the machine-readable per-cell report to this file")
		auditOn  = fs.Bool("audit", false, "install the shadow translation oracle and enforce the isolation gate")
		chaosArg = fs.String("chaos", "", "comma-separated hostile-device scenarios, or \"all\" (implies -audit)")
		coresArg = fs.String("cores", "", "comma-separated multi-queue scale-out widths (e.g. \"2,4\"); adds mode x rate cells on an MQNIC with that many queue pairs")
		intArg   = fs.String("intchaos", "", "comma-separated hostile-MSI interrupt scenarios, or \"all\" (implies -audit)")
		plugArg  = fs.String("hotplug", "", "comma-separated hot-plug storm scenarios, or \"all\" (implies -audit)")
		tenArg   = fs.String("tenants", "", "comma-separated guest counts (e.g. \"3,8\"); adds hostile-tenant two-stage cells and enforces the cross-tenant gate")
		churnArg = fs.String("churn", "", "comma-separated fleet connection counts (e.g. \"2000,500000\"); adds audited connection-churn traffic cells per mode")
		tchArg   = fs.String("tenantchaos", "", "comma-separated hostile-tenant scenarios, or \"all\" (default all when -tenants is set)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProf  = fs.String("memprofile", "", "write an allocs heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rounds < 1 {
		fmt.Fprintf(stderr, "riommu-faults: -rounds %d: want at least 1\n", *rounds)
		return 2
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
		}
	}()

	ms, err := campaign.ParseModes(*modes)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 2
	}
	rs, err := campaign.ParseRates(*rates)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 2
	}
	var scenarios []chaos.Scenario
	if *chaosArg != "" {
		scenarios, err = chaos.Parse(*chaosArg)
		if err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
			return 2
		}
		*auditOn = true // hostile cells are meaningless without the oracle
	}
	cores, err := campaign.ParseCounts(*coresArg, "cores", 2, 64)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 2
	}
	var intScenarios []chaos.IntScenario
	if *intArg != "" {
		intScenarios, err = chaos.ParseInt(*intArg)
		if err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
			return 2
		}
		*auditOn = true
	}
	var plugScenarios []string
	if *plugArg != "" {
		plugScenarios, err = campaign.ParseHotplug(*plugArg)
		if err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
			return 2
		}
		*auditOn = true
	}

	tenants, err := campaign.ParseCounts(*tenArg, "tenants", 2, 512)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 2
	}
	var tenantScenarios []chaos.TenantScenario
	if *tchArg != "" {
		if len(tenants) == 0 {
			fmt.Fprintln(stderr, "riommu-faults: -tenantchaos requires -tenants")
			return 2
		}
		tenantScenarios, err = chaos.ParseTenant(*tchArg)
		if err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
			return 2
		}
	}

	churn, err := campaign.ParseCounts(*churnArg, "churn", 1, 10_000_000)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 2
	}

	opts := campaign.Options{
		Seed:     *seed,
		Rates:    rs,
		Modes:    ms,
		Rounds:   *rounds,
		Workers:  parallel.Workers(*workers),
		Audit:    *auditOn,
		Chaos:    scenarios,
		Cores:    cores,
		IntChaos: intScenarios,
		Hotplug:  plugScenarios,
		Tenants:  tenants,
		// Run defaults TenantChaos to every scenario when Tenants is set.
		TenantChaos: tenantScenarios,
		Churn:       churn,
	}
	res, err := campaign.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 1
	}

	fmt.Fprintf(stdout, "riommu-faults: seed=%d rounds=%d (all clocks virtual; output is seed-deterministic)\n\n",
		*seed, *rounds)
	fmt.Fprintln(stdout, res.Render())

	if *jsonOut != "" {
		if err := campaign.WriteJSON(*jsonOut, campaign.BuildReport(res)); err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
			return 1
		}
		fmt.Fprintf(stderr, "riommu-faults: wrote %s\n", *jsonOut)
	}

	// A gate runs when the grid holds a cell it judges.
	var audited, intCells, tenantCells bool
	for i, k := range res.Keys {
		audited = audited || res.Cells[i].Audited
		intCells = intCells || k.Family == campaign.IntChaos || k.Family == campaign.Hotplug
		tenantCells = tenantCells || k.Family == campaign.Tenants
	}
	for _, g := range []struct {
		name  string
		run   bool
		fails func() []string
	}{
		{"isolation", audited, res.AuditViolationsGate},
		{"interrupt", intCells, res.IntremapViolationsGate},
		{"cross-tenant", tenantCells, res.CrossTenantViolationsGate},
	} {
		if !g.run {
			continue
		}
		if fails := g.fails(); len(fails) != 0 {
			for _, f := range fails {
				fmt.Fprintf(stderr, "riommu-faults: %s gate: %s\n", g.name, f)
			}
			fmt.Fprintf(stderr, "riommu-faults: %s gate failed (%d violation(s))\n", g.name, len(fails))
			return 1
		}
		fmt.Fprintf(stderr, "riommu-faults: %s gate passed\n", g.name)
	}
	return 0
}
