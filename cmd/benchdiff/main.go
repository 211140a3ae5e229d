// Command benchdiff compares two `go test -bench` output files and prints a
// per-benchmark delta table, in the spirit of benchstat but with no
// dependencies outside the standard library (the container this repo builds
// in has only the Go toolchain).
//
// Usage:
//
//	benchdiff [-fail-over PCT] [-gate spec.json] old.txt new.txt
//
// For every benchmark present in both files it reports the mean ns/op of old
// and new and the relative change. With -fail-over N the exit status is 1 if
// any benchmark slowed down by more than N percent; by default the output is
// purely informational. Benchmarks present in only one file are listed but
// never gate. allocs/op columns, when present, are compared the same way and
// always gate: any increase fails, because the hot paths are pinned at zero.
//
// -gate spec.json adds per-benchmark ns/op regression floors on top of the
// blanket -fail-over threshold:
//
//	{
//	  "enforce": false,
//	  "max_regression_pct": {"BenchmarkMapUnmapStrict": 50}
//	}
//
// A benchmark named in max_regression_pct is gated at its own floor instead
// of -fail-over, and a gated benchmark that disappears from the new file also
// trips. While "enforce" is false the gate only annotates the table (the
// informational phase that characterizes variance); flipping it to true turns
// the same spec into a hard exit-1 gate — no CI edit needed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// gateSpec is the -gate file: named benchmarks get their own max ns/op
// regression percentage, enforced (exit 1) only once Enforce is flipped on.
type gateSpec struct {
	Enforce          bool               `json:"enforce"`
	MaxRegressionPct map[string]float64 `json:"max_regression_pct"`
}

func loadGate(path string) (*gateSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g gateSpec
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("gate spec %s: %w", path, err)
	}
	return &g, nil
}

// sample accumulates the measurements of one benchmark across -count runs.
type sample struct {
	nsSum     float64
	nsN       int
	allocsSum float64
	allocsN   int
	order     int // first-seen position, to keep output in file order
	hasAllocs bool
}

// ns returns the mean ns/op, or 0 when the benchmark contributed no ns/op
// samples at all (e.g. a line carrying only allocs/op) — 0/0 would otherwise
// poison the whole delta column with NaN.
func (s *sample) ns() float64 {
	if s.nsN == 0 {
		return 0
	}
	return s.nsSum / float64(s.nsN)
}
func (s *sample) allocs() float64 {
	if s.allocsN == 0 {
		return 0
	}
	return s.allocsSum / float64(s.allocsN)
}

// parse reads one `go test -bench` output file into name → sample. Benchmark
// lines look like:
//
//	BenchmarkWalk-8   38212345   31.23 ns/op   0 B/op   0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so files from differently-sized
// machines still line up.
func parse(path string) (map[string]*sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*sample)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := out[name]
		if s == nil {
			s = &sample{order: len(out)}
			out[name] = s
		}
		// Scan "<value> <unit>" pairs after the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsSum += v
				s.nsN++
			case "allocs/op":
				s.allocsSum += v
				s.allocsN++
				s.hasAllocs = true
			}
		}
	}
	return out, sc.Err()
}

// pct is the relative change in percent. A zero "before" mean (an
// instantaneous or sample-less benchmark) yields 0 rather than ±Inf/NaN: a
// baseline of zero can't express a meaningful ratio, and the absolute
// columns next to it tell the real story.
func pct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before * 100
}

// diff renders the per-benchmark comparison table to w and reports whether
// any gate tripped: ns/op regressions beyond failOver percent (0 disables),
// per-benchmark floors from the -gate spec, or any allocs/op increase. A nil
// gate means no spec was given.
func diff(w io.Writer, old, cur map[string]*sample, failOver float64, gate *gateSpec) bool {
	names := make([]string, 0, len(old))
	// maporder: sorted into file order below.
	for n := range old {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return old[names[i]].order < old[names[j]].order })

	fmt.Fprintf(w, "%-34s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	failed := false
	for _, n := range names {
		o, c := old[n], cur[n]
		limit, gated := 0.0, false
		if gate != nil {
			limit, gated = gate.MaxRegressionPct[n]
		}
		if c == nil {
			mark := ""
			if gated {
				// A gated benchmark that vanished would otherwise pass forever.
				if gate.Enforce {
					mark = "  GATE: missing from new"
					failed = true
				} else {
					mark = "  gate (informational): missing from new"
				}
			}
			fmt.Fprintf(w, "%-34s %14.1f %14s %9s%s\n", n, o.ns(), "-", "gone", mark)
			continue
		}
		d := pct(o.ns(), c.ns())
		mark := ""
		switch {
		case gated && d > limit:
			if gate.Enforce {
				mark = fmt.Sprintf("  GATE REGRESSION (> %+.1f%%)", limit)
				failed = true
			} else {
				mark = fmt.Sprintf("  gate (informational): over %+.1f%% floor", limit)
			}
		case !gated && failOver > 0 && d > failOver:
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-34s %14.1f %14.1f %+8.1f%%%s\n", n, o.ns(), c.ns(), d, mark)
		if o.hasAllocs && c.hasAllocs && c.allocs() > o.allocs() {
			fmt.Fprintf(w, "%-34s %14.1f %14.1f allocs/op  ALLOC REGRESSION\n", "  └ allocs", o.allocs(), c.allocs())
			failed = true
		}
	}
	newNames := make([]string, 0, len(cur))
	// maporder: sorted into file order below.
	for n := range cur {
		if old[n] == nil {
			newNames = append(newNames, n)
		}
	}
	sort.Slice(newNames, func(i, j int) bool { return cur[newNames[i]].order < cur[newNames[j]].order })
	for _, n := range newNames {
		fmt.Fprintf(w, "%-34s %14s %14.1f %9s\n", n, "-", cur[n].ns(), "new")
	}
	return failed
}

func main() {
	failOver := flag.Float64("fail-over", 0, "exit 1 if any benchmark slows down by more than this percent (0 = informational)")
	gatePath := flag.String("gate", "", "JSON spec with per-benchmark max ns/op regression percentages")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-fail-over PCT] [-gate spec.json] old.txt new.txt\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var gate *gateSpec
	if *gatePath != "" {
		var err error
		if gate, err = loadGate(*gatePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
	}
	old, err := parse(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := parse(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	if diff(os.Stdout, old, cur, *failOver, gate) {
		fmt.Fprintln(os.Stderr, "benchdiff: regressions detected")
		os.Exit(1)
	}
}
