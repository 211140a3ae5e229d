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

import (
	"fmt"
	"sort"
)

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

// Experiment is a registered, runnable reproduction of one table/figure.
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

// wrap adapts a structured Run* function into the registry's Run shape.
func wrap[R renderer](run func(Config) (R, error)) func(Config) (Output, error) {
	return func(cfg Config) (Output, error) {
		r, err := run(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render(), Cells: r.Cells()}, nil
	}
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	// maporder: sorted by ID below.
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids())
	}
	return e, nil
}

func ids() []string {
	var out []string
	// maporder: sorted below.
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
