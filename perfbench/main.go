// Command perfbench is the repository benchmark. It runs one named workload
// closed-loop on a single worker, repeating it until the time budget is
// spent, checks every simulated output, and prints the host-clock metrics
// (scaled to a fixed host speed, see refClock) as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (medians over the
// repetitions). With -trace 1 untraced and traced repetitions alternate,
// and the metrics are the per-layer ones, measured by timing calls at the
// public seams of internal/experiments, internal/campaign, internal/traffic,
// internal/sim and internal/dma; the traced spans are written to spanDir.
//
// Build and run it from the repository root with run.sh:
//
//	bash perfbench/run.sh --workload churn-raw --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when -seed is absent; heldOutSeed is
// reserved for confirming a claimed gain on inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// spanDir receives the traced spans, relative to the repository root.
var spanDir = filepath.Join(".bench_build", "perfbench")

// sample is what one repetition of a workload measured.
type sample struct {
	wall, setup time.Duration
	cells       int    // grid cells or per-mode worlds run
	pkts        uint64 // simulated data packets
	units       int    // correctness units checked (see README.md)
	failed      int
	problems    []string
	// pinned are simulated metrics, and outputs a digest of every simulated
	// output; both must be identical across repetitions and between traced
	// and untraced runs.
	pinned  map[string]float64
	outputs string
	layers  map[string]float64 // traced repetitions only

	// Filled by runRep from runtime.MemStats at the repetition's edges.
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func (s *sample) fail(units int, format string, args ...any) {
	s.failed += units
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	rep  func(seed uint64, tr *tracer) (sample, error)
}

var workloads = []workload{
	{"paper-quick", paperQuickRep},
	{"fault-grid", faultGridRep},
	{"churn-audited", churnRep(true)},
	{"churn-raw", churnRep(false)},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper-quick, fault-grid, churn-audited or churn-raw")
		seed    = fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", heldOutSeed))
		seconds = fs.Int("seconds", 20, "measure for this many seconds (at least one repetition)")
		trace   = fs.Int("trace", 0, "1 prints the per-layer metrics from alternating traced and untraced repetitions")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	traced := *trace == 1

	plain, tsamples, ref, spans, err := measure(w, *seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := summarize(plain, tsamples, ref)
	if traced {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		path := filepath.Join(spanDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	for _, s := range append(plain, tsamples...) {
		for _, p := range s.problems {
			fmt.Fprintln(stderr, "perfbench: FAIL:", p)
		}
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d repetitions=%d traced=%d attempted=%d failed=%d fail_frac=%g reference_kernels=%d reference_ms=%.3f\n",
		w.name, *seed, len(plain), len(tsamples), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), len(ref.ms), median(ref.ms))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measure repeats the workload while another repetition fits in budget (at
// least once), alternating an untraced and a traced repetition when traced
// is set, and keeps the reference kernel at its share of the run. It then
// marks every repetition whose simulated outputs differ from the first
// untraced one as failed.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (plain, tsamples []sample, ref refClock, spans []span, err error) {
	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	for {
		iter := time.Now()
		ref.keepUp(time.Since(start))
		s, err := runRep(w, seed, nil)
		if err != nil {
			return nil, nil, ref, nil, err
		}
		plain = append(plain, s)
		if traced {
			s, err := runRep(w, seed, tr)
			if err != nil {
				return nil, nil, ref, nil, err
			}
			tsamples = append(tsamples, s)
		}
		// Stop when one more iteration like this one would overrun.
		if time.Since(start)+time.Since(iter) > budget {
			break
		}
	}
	for i := 1; i < len(plain); i++ {
		if moved := movedOutputs(plain[0], plain[i]); len(moved) > 0 {
			plain[i].fail(plain[i].units-plain[i].failed, "%s repetition %d moved from repetition 0: %v", w.name, i, moved)
		}
	}
	for i := range tsamples {
		if moved := movedOutputs(plain[0], tsamples[i]); len(moved) > 0 {
			tsamples[i].fail(tsamples[i].units-tsamples[i].failed, "%s traced repetition %d differs from the untraced run: %v", w.name, i, moved)
		}
	}
	if tr != nil {
		spans = tr.spans
	}
	return plain, tsamples, ref, spans, nil
}

// runRep runs one repetition and reads the allocator and GC counters at its
// edges. It first collects twice: the previous repetition's garbage goes,
// and so does everything it left in sync.Pools (a pool keeps its objects
// through one collection), so every repetition starts from the same heap.
func runRep(w workload, seed uint64, tr *tracer) (sample, error) {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin(w.name, false)
	s, err := w.rep(seed, tr)
	tr.end(id)
	runtime.ReadMemStats(&after)
	s.allocB = after.TotalAlloc - before.TotalAlloc
	s.gcCycles = after.NumGC - before.NumGC
	s.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return s, err
}

// movedOutputs names every pinned metric, and the output digest, that
// differs between two repetitions.
func movedOutputs(ref, s sample) []string {
	var moved []string
	for k, v := range ref.pinned {
		if got, ok := s.pinned[k]; !ok || got != v {
			moved = append(moved, k)
		}
	}
	for k := range s.pinned {
		if _, ok := ref.pinned[k]; !ok {
			moved = append(moved, k)
		}
	}
	if s.outputs != ref.outputs {
		moved = append(moved, "outputs")
	}
	sort.Strings(moved)
	return moved
}

// summarize folds the repetitions into the result line: end-to-end medians
// when there are no traced repetitions, per-layer medians otherwise. The
// end-to-end times are scaled to the reference host speed (see refClock).
func summarize(plain, tsamples []sample, ref refClock) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, s := range append(append([]sample(nil), plain...), tsamples...) {
		res.Attempted += s.units
		res.Failed += s.failed
	}
	res.Correct = res.Failed == 0
	pick := func(ss []sample, f func(sample) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	if len(tsamples) == 0 {
		k := ref.scale()
		e2e := map[string]float64{
			"wall_s":         k * pick(plain, func(s sample) float64 { return s.wall.Seconds() }),
			"setup_s":        k * pick(plain, func(s sample) float64 { return s.setup.Seconds() }),
			"cells_per_s":    pick(plain, func(s sample) float64 { return float64(s.cells) / s.wall.Seconds() }) / k,
			"sim_pkts_per_s": pick(plain, func(s sample) float64 { return float64(s.pkts) / s.wall.Seconds() }) / k,
			"alloc_mb":       pick(plain, func(s sample) float64 { return float64(s.allocB) / 1e6 }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
		return res
	}
	layers := map[string]float64{}
	for _, m := range perLayer() {
		layers[m.Name] = pick(tsamples, func(s sample) float64 {
			if v, ok := s.layers[m.Name]; ok {
				return v
			}
			return s.pinned[m.Name]
		})
	}
	layers["runtime.gc_cycles"] = pick(tsamples, func(s sample) float64 { return float64(s.gcCycles) })
	layers["runtime.gc_pause_ms"] = pick(tsamples, func(s sample) float64 { return float64(s.gcPauseNs) / 1e6 })
	layers["runtime.peak_rss_mb"] = peakRSSMB()
	layers["host.reference_ms"] = median(ref.ms)
	plainWall := pick(plain, func(s sample) float64 { return s.wall.Seconds() })
	tracedWall := pick(tsamples, func(s sample) float64 { return s.wall.Seconds() })
	layers["trace.overhead_pct"] = (tracedWall/plainWall - 1) * 100
	for _, m := range perLayer() {
		res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
	}
	return res
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
