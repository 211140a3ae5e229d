// Command riommu-bench regenerates the paper's tables and figures from the
// simulated systems.
//
// Usage:
//
//	riommu-bench [-quality quick|full] [-parallel N] [-exp id[,id...]] [-json FILE]
//	             [-csv DIR] [-cpuprofile FILE] [-memprofile FILE] [-list]
//
// With no -exp, every experiment runs in ID order; -exp runs the named ones
// in the flag's order and refuses an ID named twice. Output is the
// paper-style rendering of each table/figure, with the paper's own numbers
// alongside where the experiment embeds them.
//
// -parallel N fans each experiment's cell grid across N workers (default:
// GOMAXPROCS; -parallel 1 forces the legacy serial path). Results are merged
// in grid order, so stdout and -json output are byte-identical for any
// worker count. Per-experiment wall-clock timing, with the number of cells
// each experiment reused from an earlier one of the same run, goes to stderr
// only, to keep stdout deterministic.
//
// -json FILE additionally writes the machine-readable per-cell report (the
// format the CI benchmark-regression gate diffs against BENCH_golden.json).
// A run in which any experiment fails exits 1 before it writes -json, so
// every report written is complete. -csv DIR exports the Figure 7, 8 and 12
// series, and -cpuprofile and -memprofile write runtime/pprof profiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"riommu/internal/experiments"
	"riommu/internal/parallel"
	"riommu/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("riommu-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quality = fs.String("quality", "quick", "run length: quick or full")
		list    = fs.Bool("list", false, "list experiments and exit")
		exp     = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		workers = fs.Int("parallel", 0, "cell-level worker count (0 = GOMAXPROCS, 1 = serial)")
		jsonOut = fs.String("json", "", "write the machine-readable per-cell report to this file")
		csvDir  = fs.String("csv", "", "also export Figure 7/8/12 data series as CSV into this directory")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProf = fs.String("memprofile", "", "write an allocs heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-bench:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "riommu-bench:", err)
		}
	}()

	cfg := experiments.Config{Quality: experiments.Quick, Workers: parallel.Workers(*workers)}
	switch *quality {
	case "quick":
	case "full":
		cfg.Quality = experiments.Full
	default:
		fmt.Fprintf(stderr, "riommu-bench: unknown quality %q (want quick or full)\n", *quality)
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n%-12s paper: %s\n", e.ID, e.Title, "", e.Paper)
		}
		return 0
	}

	var selected []experiments.Experiment
	if *exp == "" {
		selected = experiments.All()
	} else {
		seen := map[string]bool{}
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, err := experiments.Lookup(id)
			if err != nil {
				fmt.Fprintln(stderr, "riommu-bench:", err)
				return 2
			}
			if seen[id] {
				fmt.Fprintf(stderr, "riommu-bench: experiment %q selected twice\n", id)
				return 2
			}
			seen[id] = true
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := experiments.ExportCSV(*csvDir, cfg); err != nil {
			fmt.Fprintln(stderr, "riommu-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote figure7.csv, figure8.csv, figure12_{mlx,brcm}.csv to %s\n", *csvDir)
		if *exp == "" && *jsonOut == "" {
			return 0
		}
	}

	start := time.Now()
	results := experiments.RunAll(cfg, selected)
	for _, r := range results {
		fmt.Fprintf(stderr, "riommu-bench: %-12s %6.2fs  %d cell(s) reused\n",
			r.Experiment.ID, r.Elapsed.Seconds(), r.Reused)
	}
	fmt.Fprintf(stderr, "riommu-bench: %d experiment(s), %d worker(s), %.1fs\n",
		len(selected), cfg.Workers, time.Since(start).Seconds())

	// Report every failing experiment, not just the first: a grid error in
	// cell k must not hide an unrelated error in cell k+1's experiment.
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(stderr, "riommu-bench: %s: %v\n", r.Experiment.ID, r.Err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "riommu-bench: %d of %d experiments failed\n", failed, len(results))
		return 1
	}

	for _, r := range results {
		fmt.Fprintf(stdout, "=== %s — %s\n", r.Experiment.ID, r.Experiment.Title)
		fmt.Fprintf(stdout, "    paper: %s\n\n", r.Experiment.Paper)
		fmt.Fprintln(stdout, r.Output.Text)
	}

	if *jsonOut != "" {
		rep, err := experiments.BuildReport(cfg, results)
		if err != nil {
			fmt.Fprintln(stderr, "riommu-bench:", err)
			return 1
		}
		if err := experiments.WriteJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, "riommu-bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "riommu-bench: wrote %s\n", *jsonOut)
	}
	return 0
}
