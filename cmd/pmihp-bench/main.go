// Command pmihp-bench regenerates the paper's tables and figures (and the
// ablations in DESIGN.md) from the synthetic corpora.
//
// Usage:
//
//	pmihp-bench -list
//	pmihp-bench -exp e1 [-scale small|harness|paper] [-v]
//	pmihp-bench -exp all
//	pmihp-bench -benchjson BENCH_dev.json [-rev dev] [-baseline BENCH_baseline.json]
//	pmihp-bench -exp e3 -cpuprofile cpu.prof -memprofile mem.prof
//	pmihp-bench -serve-load http://127.0.0.1:8397 -serve-report load.json
//
// The -benchjson mode runs the E1–E9 benchmark workloads under the standard
// Go benchmark driver and writes ns/op, allocs/op, bytes held, and simulated
// seconds per figure as JSON. With -baseline it exits nonzero when any
// workload's wall-clock or held memory regresses by more than 20% or any
// simulated time drifts. A baseline written before the current report
// schema is an error, not a weaker comparison: regenerate it.
//
// The -serve-load mode drives a running pmihp-serve daemon with concurrent
// clients issuing Zipf-distributed /expand queries, a cold-cache phase and
// then a warm-cache replay of the same sequence, and prints QPS, latency
// quantiles, and error counts per phase; -serve-report writes the full JSON
// report. It exits nonzero when any request errors out.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run
// (any mode), for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pmihp/internal/benchharness"
	"pmihp/internal/corpus"
	"pmihp/internal/experiments"
)

// main delegates to realMain so deferred profile writers run before exit.
func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		expID      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale      = flag.String("scale", "harness", "corpus scale: small, harness, or paper")
		list       = flag.Bool("list", false, "list experiments and exit")
		verbose    = flag.Bool("v", false, "log progress to stderr")
		benchJSON  = flag.String("benchjson", "", "run the benchmark harness and write results to this JSON file")
		rev        = flag.String("rev", "dev", "revision label recorded in -benchjson output")
		baseline   = flag.String("baseline", "", "baseline JSON to compare -benchjson results against")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")

		serveLoad   = flag.String("serve-load", "", "load-test the pmihp-serve daemon at this base URL")
		serveClient = flag.Int("serve-clients", 8, "concurrent clients for -serve-load")
		serveReqs   = flag.Int("serve-requests", 2000, "requests per phase for -serve-load")
		serveZipfS  = flag.Float64("serve-zipf-s", 1.2, "Zipf s parameter for -serve-load head selection (> 1)")
		serveLimit  = flag.Int("serve-limit", 5, "per-word term limit sent with -serve-load queries")
		serveSeed   = flag.Int64("serve-seed", 1, "deterministic request-sequence seed for -serve-load")
		serveReport = flag.String("serve-report", "", "write the -serve-load JSON report to this file")

		schedCompare = flag.Bool("sched-compare", false, "run the static-vs-elastic scheduler comparison on the skewed corpus and print the JSON report")
		schedReport  = flag.String("sched-report", "", "also write the -sched-compare JSON report to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
			}
		}()
	}

	if *serveLoad != "" {
		return runServeLoad(benchharness.LoadConfig{
			BaseURL:  strings.TrimRight(*serveLoad, "/"),
			Clients:  *serveClient,
			Requests: *serveReqs,
			Limit:    *serveLimit,
			ZipfS:    *serveZipfS,
			Seed:     *serveSeed,
		}, *serveReport)
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	sc, err := corpus.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
		return 2
	}

	if *schedCompare {
		return runSchedCompare(sc, *schedReport, *verbose)
	}
	if *benchJSON != "" {
		return runBenchHarness(*benchJSON, *rev, *baseline, sc, *verbose)
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "pmihp-bench: -exp required (or -list, -benchjson); e.g. -exp e1")
		return 2
	}
	params := experiments.Params{Scale: sc}
	if *verbose {
		params.Log = os.Stderr
	}

	run := func(e experiments.Experiment) bool {
		start := time.Now()
		out, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmihp-bench: %s: %v\n", e.ID, err)
			return false
		}
		fmt.Printf("== %s: %s\n\n%s\n(real time %.1fs)\n\n", e.ID, e.Title, out, time.Since(start).Seconds())
		return true
	}

	if *expID == "all" {
		for _, e := range experiments.All() {
			if !run(e) {
				return 1
			}
		}
		return 0
	}
	e, ok := experiments.ByID(*expID)
	if !ok {
		fmt.Fprintf(os.Stderr, "pmihp-bench: unknown experiment %q (use -list)\n", *expID)
		return 2
	}
	if !run(e) {
		return 1
	}
	return 0
}

// runSchedCompare runs the static-vs-elastic scheduler experiment on the
// skewed corpus, prints the JSON report, and fails if either arm's
// itemsets differ from the single-process reference or the elastic arm
// does not improve the imbalance ratio.
func runSchedCompare(sc corpus.Scale, reportPath string, verbose bool) int {
	var log io.Writer
	if verbose {
		log = os.Stderr
	}
	rep, err := benchharness.RunSchedCompare(sc, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
		return 1
	}
	if err := rep.WriteJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
		return 1
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
			return 1
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "pmihp-bench:", werr)
			return 1
		}
	}
	if !rep.Identical {
		fmt.Fprintln(os.Stderr, "pmihp-bench: sched-compare itemsets differ from the reference")
		return 1
	}
	if rep.Elastic.Resizes == 0 {
		fmt.Fprintln(os.Stderr, "pmihp-bench: sched-compare elastic arm never resized")
		return 1
	}
	if rep.Elastic.Imbalance >= rep.Static.Imbalance {
		fmt.Fprintf(os.Stderr, "pmihp-bench: sched-compare elastic imbalance %.3f did not beat static %.3f\n",
			rep.Elastic.Imbalance, rep.Static.Imbalance)
		return 1
	}
	if rep.Elastic.MaxBusySeconds >= rep.Static.MaxBusySeconds {
		fmt.Fprintf(os.Stderr, "pmihp-bench: sched-compare elastic modeled makespan %.3fs did not beat static %.3fs\n",
			rep.Elastic.MaxBusySeconds, rep.Static.MaxBusySeconds)
		return 1
	}
	return 0
}

// runServeLoad drives the daemon through the cold/warm load phases,
// optionally writes the JSON report, and fails on any request error.
func runServeLoad(cfg benchharness.LoadConfig, reportPath string) int {
	rep, err := benchharness.RunLoad(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
		return 1
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
			return 1
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "pmihp-bench:", werr)
			return 1
		}
		fmt.Printf("wrote %s\n", reportPath)
	}
	if rep.Cold.Errors+rep.Warm.Errors > 0 {
		fmt.Fprintf(os.Stderr, "pmihp-bench: serve-load saw %d errors\n", rep.Cold.Errors+rep.Warm.Errors)
		return 1
	}
	return 0
}

// runBenchHarness measures the E1–E9 workloads, writes the JSON report, and
// (when a baseline is given) fails on wall-clock or held-memory regressions
// beyond 20% or any simulated-time drift.
func runBenchHarness(path, rev, baselinePath string, sc corpus.Scale, verbose bool) int {
	var log io.Writer
	if verbose {
		log = os.Stderr
	}
	rep, err := benchharness.Run(rev, sc, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
		return 1
	}
	if err := rep.WriteJSON(path); err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d workloads, rev %s, scale %s)\n", path, len(rep.Workloads), rep.Rev, rep.Scale)
	if baselinePath == "" {
		return 0
	}
	base, err := benchharness.ReadJSON(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-bench:", err)
		return 1
	}
	if missing := benchharness.MissingFromBase(base, rep); len(missing) > 0 {
		fmt.Printf("note: baseline %s predates %d workload(s) — %s — which therefore ran ungated; regenerate the baseline to gate them\n",
			baselinePath, len(missing), strings.Join(missing, ", "))
	}
	bad, err := benchharness.Compare(base, rep, 0.20)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmihp-bench: %s: %v\n", baselinePath, err)
		return 1
	}
	if len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "pmihp-bench: regressions vs", baselinePath)
		for _, line := range bad {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
		return 1
	}
	fmt.Printf("no regressions vs %s\n", baselinePath)
	return 0
}
