// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §5) from the simulated systems:
//
//	Table 1   — cycle breakdown of map/unmap per protection mode
//	Figure 7  — cycles per packet per mode, stacked by component
//	Figure 8  — Gbps(C) model curve vs busy-wait sweep vs mode points
//	Figure 12 — throughput and CPU for 5 benchmarks × 7 modes × 2 NICs
//	Table 2   — normalized rIOMMU ratios derived from Figure 12
//	Table 3   — Netperf RR round-trip times
//	§5.3      — IOTLB miss penalty under user-level polling I/O
//	§5.4      — TLB prefetcher comparison on DMA traces
//	§4        — Bonnie++/SATA applicability check
//
// Each experiment returns structured results plus a paper-style rendering.
package experiments

import "fmt"

// Quality selects run lengths: Quick for tests/CI, Full for the numbers
// recorded in EXPERIMENTS.md.
type Quality int

// Quality levels.
const (
	Quick Quality = iota
	Full
)

// scale returns n for Full quality and a reduced count for Quick.
func (q Quality) scale(quick, full int) int {
	if q == Full {
		return full
	}
	return quick
}

// String names the quality level ("quick" or "full").
func (q Quality) String() string {
	if q == Full {
		return "full"
	}
	return "quick"
}

// Config selects how an experiment runs: the Quality (run lengths) and the
// number of concurrent cell workers. Workers <= 1 is the legacy serial
// path; any value yields byte-identical results (see internal/parallel).
type Config struct {
	Quality Quality
	// Workers bounds the concurrent grid cells. Each in-flight cell owns a
	// fully isolated simulation world, so Workers also bounds live
	// simulated memories.
	Workers int

	// memo is the cell memo of the RunAll call running the experiment. It
	// is nil in every Config built outside RunAll, so a direct RunX call
	// computes all of its cells.
	memo *cellMemo
}

// Serial is the canonical single-worker config used by tests and golden
// generation.
func Serial(q Quality) Config { return Config{Quality: q, Workers: 1} }

// Output is one experiment's deliverable: the paper-style rendering plus
// the machine-readable per-cell metrics CI diffs exactly.
type Output struct {
	Text  string
	Cells []Cell
}

// Experiment is a runnable reproduction of one table/figure.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports for this experiment.
	Paper string
	Run   func(cfg Config) (Output, error)
}

// renderer is a structured experiment result that can produce both halves
// of an Output.
type renderer interface {
	Render() string
	Cells() []Cell
}

// wrap adapts a structured Run* function into the Experiment.Run shape.
func wrap[R renderer](run func(Config) (R, error)) func(Config) (Output, error) {
	return func(cfg Config) (Output, error) {
		r, err := run(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render(), Cells: r.Cells()}, nil
	}
}

// all is every experiment, in ID order.
var all = []Experiment{
	{
		ID:    "ablations",
		Title: "Ablations: burst length, defer batch, prefetching, ring sizing",
		Paper: "design-choice sweeps behind §4's claims: ~200-iteration bursts amortize invalidations; defer batches 250; prefetch optional; N >= L",
		Run:   wrap(RunAblations),
	},
	{
		ID:    "bonnie",
		Title: "Sec 4: SATA applicability — Bonnie++ sequential I/O",
		Paper: "indistinguishable performance with strict IOMMU protection and with a disabled IOMMU, HDD or SSD",
		Run:   wrap(RunBonnie),
	},
	{
		ID:    "figS2",
		Title: "Figure S2: connection-churn collapse, kernel vs bypass paths",
		Paper: "Extrapolation: the paper's map/unmap costs (Table 1) applied to " +
			"datacenter flow churn. Short-lived flows turn every packet into an " +
			"IOVA alloc + page-table update + invalidation; strict collapses, " +
			"deferral is dragged down by its allocator, rIOMMU holds, and the " +
			"kernel-bypass path (persistent mappings, §5.3) rides at line rate.",
		Run: wrap(RunFigS2),
	},
	{
		ID:    "figure12",
		Title: "Figure 12: throughput and CPU for all benchmarks, modes and NICs",
		Paper: "mlx/stream: riommu 0.77x none, 7.56x strict; brcm: all modes but strict saturate 10GbE; rr/apache-1K/memcached per §5.2",
		Run:   wrap(RunFigure12),
	},
	{
		ID:    "figure7",
		Title: "Figure 7: cycles per packet per mode, stacked by component",
		Paper: "C_none=1,816; C_strict ≈ 9.4x none; C_defer+ ≈ 3.3x none; rIOMMU brings C near C_none",
		Run:   wrap(RunFigure7),
	},
	{
		ID:    "figure8",
		Title: "Figure 8: throughput as a function of cycles per packet",
		Paper: "the Gbps(C)=1500B*8*S/C model coincides with busy-wait-lengthened runs and with all IOMMU-mode measurements",
		Run:   wrap(RunFigure8),
	},
	{
		ID:    "intremap",
		Title: "Interrupt remapping overhead: posted MSI-X delivery per mode",
		Paper: "§2/§4 extension: the IOMMU's interrupt-remapping unit validates every MSI against the IRT; the experiment charges the walk/IEC-cache and per-core dispatch costs and isolates their overhead on the scale-out workload",
		Run:   wrap(RunIntremap),
	},
	{
		ID:    "methodology",
		Title: "Sec 5.1: HWpt/SWpt methodology validation",
		Paper: "HWpt == SWpt everywhere; RR identical to none; stream ~10% below none, caused by ~200 cycles of kernel abstraction, not translation",
		Run:   wrap(RunMethodology),
	},
	{
		ID:    "misspenalty",
		Title: "Sec 5.3: IOTLB miss penalty in low-latency environments",
		Paper: "miss penalty ~0.5 us (1,532 cycles); approximates rIOMMU's benefit for user-level I/O",
		Run:   wrap(RunMissPenalty),
	},
	{
		ID:    "nvme",
		Title: "Extension: NVMe SSD IOPS under each protection mode",
		Paper: "§4 asserts applicability (NVMe queues are consumed in order) without evaluating; this experiment quantifies it",
		Run:   wrap(RunNVMe),
	},
	{
		ID:    "pathology",
		Title: "Sec 3.2: IOVA allocator pathology vs live-set size",
		Paper: "some allocations are linear in the number of currently allocated IOVAs; the '+' allocator is constant-time",
		Run:   wrap(RunPathology),
	},
	{
		ID:    "prefetchers",
		Title: "Sec 5.4: comparison against Markov/Recency/Distance TLB prefetchers",
		Paper: "baseline prefetchers ineffective; modified Markov/Recency work only with history > ring; Distance ineffective; rIOTLB needs 2 entries/ring, always correct",
		Run:   wrap(RunPrefetchers),
	},
	{
		ID:    "scalability",
		Title: "Figure S1: aggregate throughput vs cores, per mode and NIC",
		Paper: "§2.3: rings handled concurrently by different cores — rIOMMU scales to line rate while strict/defer serialize on the shared IOVA allocator and invalidation queue",
		Run:   wrap(RunScalability),
	},
	{
		ID:    "table1",
		Title: "Table 1: (un)map cycle breakdown per protection mode",
		Paper: "strict map dominated by IOVA alloc (3,986 cy); unmap by IOTLB inv (2,127 cy); '+' allocator cuts alloc to ~92 cy; defer cuts inv to 9 cy",
		Run:   wrap(RunTable1),
	},
	{
		ID:    "table2",
		Title: "Table 2: normalized rIOMMU performance ratios",
		Paper: "riommu throughput 2.90-7.56x strict modes, 1.74-3.79x deferred (mlx stream); 0.77-1.00x none; cpu 0.36-1.00x",
		Run:   wrap(RunTable2),
	},
	{
		ID:    "table3",
		Title: "Table 3: Netperf RR round-trip times",
		Paper: "mlx: 17.3 (strict) .. 13.4 us (none); brcm: 41.9 .. 34.6 us; rIOMMU within 0.5-0.7 us of none",
		Run:   wrap(RunTable3),
	},
}

// All returns every experiment in ID order.
func All() []Experiment { return append([]Experiment(nil), all...) }

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	var have []string
	for _, e := range all {
		if e.ID == id {
			return e, nil
		}
		have = append(have, e.ID)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, have)
}
