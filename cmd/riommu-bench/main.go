// Command riommu-bench regenerates the paper's tables and figures from the
// simulated systems.
//
// Usage:
//
//	riommu-bench [-quality quick|full] [-parallel N] [-exp id[,id...]] [-json FILE]
//	             [-csv DIR] [-shard i/K] [-cpuprofile FILE] [-memprofile FILE] [-list]
//	riommu-bench -merge FILE[,FILE...] -json FILE
//
// With no -exp, every registered experiment runs in order. Output is the
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
// -shard i/K runs every K-th selected experiment starting at the i-th, and
// -merge folds the shards' -json reports into the bytes of one unsharded
// run. -csv DIR exports the Figure 7, 8 and 12 series, and -cpuprofile and
// -memprofile write runtime/pprof profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"riommu/internal/experiments"
	"riommu/internal/parallel"
	"riommu/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// notifyInterrupt translates SIGINT/SIGTERM into the worker pool's
// cooperative cancellation flag: in-flight cells finish, unstarted ones are
// skipped, and the caller flushes a partial report. The returned stop func
// detaches the handler (a second signal then kills the process normally).
func notifyInterrupt() (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		for range sigc {
			parallel.Interrupt()
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(sigc)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	parallel.ResetInterrupt()
	defer notifyInterrupt()()

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
		shard   = fs.String("shard", "", "run only every K-th selected experiment: \"i/K\" with 0 <= i < K")
		merge   = fs.String("merge", "", "merge comma-separated shard -json reports into -json FILE instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-bench:", err)
		return 2
	}
	// Deferred (not run at exit) so profiles are flushed before the 130 of an
	// interrupted run reaches os.Exit.
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

	if *merge != "" {
		if *jsonOut == "" {
			fmt.Fprintln(stderr, "riommu-bench: -merge needs -json FILE for the merged report")
			return 2
		}
		var reps []experiments.Report
		for _, p := range strings.Split(*merge, ",") {
			rep, err := experiments.ReadReport(strings.TrimSpace(p))
			if err != nil {
				fmt.Fprintln(stderr, "riommu-bench:", err)
				return 1
			}
			reps = append(reps, rep)
		}
		rep, err := experiments.MergeReports(reps)
		if err != nil {
			fmt.Fprintln(stderr, "riommu-bench:", err)
			return 1
		}
		if err := experiments.WriteJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, "riommu-bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "riommu-bench: merged %d shard report(s) into %s\n", len(reps), *jsonOut)
		return 0
	}

	var selected []experiments.Experiment
	if *exp == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(stderr, "riommu-bench:", err)
				return 2
			}
			selected = append(selected, e)
		}
	}
	shardIdx, shardCount, err := parallel.ParseShard(*shard)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-bench:", err)
		return 2
	}
	if shardCount > 1 {
		selected = experiments.Shard(selected, shardIdx, shardCount)
		fmt.Fprintf(stderr, "riommu-bench: shard %d/%d — %d experiment(s)\n", shardIdx, shardCount, len(selected))
	}

	start := time.Now()
	results := experiments.RunAll(cfg, selected)
	for _, r := range results {
		fmt.Fprintf(stderr, "riommu-bench: %-12s %6.2fs  %d cell(s) reused\n",
			r.Experiment.ID, r.Elapsed.Seconds(), r.Reused)
	}
	fmt.Fprintf(stderr, "riommu-bench: %d experiment(s), %d worker(s), %.1fs\n",
		len(selected), cfg.Workers, time.Since(start).Seconds())

	if parallel.Interrupted() {
		return flushPartial(cfg, results, *jsonOut, stderr)
	}

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

// flushPartial handles an interrupted run: every experiment that completed
// before the signal is preserved in a report marked "interrupted", and the
// exit code is the conventional 128+SIGINT.
func flushPartial(cfg experiments.Config, results []experiments.RunResult, jsonOut string, stderr io.Writer) int {
	done := 0
	for _, r := range results {
		if r.Err == nil {
			done++
		} else if !errors.Is(r.Err, parallel.ErrInterrupted) {
			fmt.Fprintf(stderr, "riommu-bench: %s: %v\n", r.Experiment.ID, r.Err)
		}
	}
	fmt.Fprintf(stderr, "riommu-bench: interrupted — %d of %d experiments completed\n", done, len(results))
	if jsonOut != "" {
		rep := experiments.BuildPartialReport(cfg, results)
		if err := experiments.WriteJSON(jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, "riommu-bench:", err)
		} else {
			fmt.Fprintf(stderr, "riommu-bench: wrote partial report to %s\n", jsonOut)
		}
	}
	return 130
}
