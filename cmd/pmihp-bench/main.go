// Command pmihp-bench regenerates the paper's tables and figures (and the
// ablations in DESIGN.md) from the synthetic corpora. The first argument
// names the subcommand, which accepts only the flags it reads
// (`pmihp-bench <subcommand> -h` lists them):
//
//	pmihp-bench list
//	pmihp-bench exp [-scale small|harness|paper] [-v] e1|all
//	pmihp-bench figures -json bench.json [-scale small|harness|paper] [-v]
//	pmihp-bench sched-compare [-scale small|harness|paper] [-v] [-report sched.json]
//	pmihp-bench serve-load -url http://127.0.0.1:8397 [-report load.json]
//
// figures writes each figure workload's (internal/benchharness) ns/op and
// allocs/op beside its outcome as JSON and gates nothing: the outcomes
// are pinned by benchharness.TestFigureOutcomesGolden, wall-clock time
// by perfbench/. sched-compare gates the static-vs-elastic scheduler
// comparison on the skewed corpus; serve-load drives a running
// pmihp-serve through a cold-cache and a warm-cache phase of Zipf
// /expand queries and fails on any request error. exp, figures and
// sched-compare take -cpuprofile and -memprofile. The exit status is 2
// for a usage error and 1 for a failed run or gate.
package main

import (
	"errors"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = "usage: pmihp-bench list|figures|sched-compare|serve-load [flags]\n       pmihp-bench exp [flags] <id>|all"

// A command runs a parsed subcommand over its positional arguments. A
// usageError makes run exit 2; any other error is a failed run or gate.
type command func(pos []string, stdout, stderr io.Writer) error

type usageError struct{ error }

// run is the one options parser: the subcommand's flag set holds only
// the groups and flags it reads. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet("pmihp-bench "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cmd command
	nargs := 0 // positional arguments the subcommand takes
	switch args[0] {
	case "list":
		cmd = list
	case "exp":
		cmd, nargs = addProfileFlags(fs, exp(addRunFlags(fs))), 1
	case "figures":
		cmd = addProfileFlags(fs, addFiguresFlags(fs, addRunFlags(fs)))
	case "sched-compare":
		cmd = addProfileFlags(fs, addSchedCompareFlags(fs, addRunFlags(fs)))
	case "serve-load":
		cmd = addServeLoadFlags(fs)
	default:
		fmt.Fprintf(stderr, "pmihp-bench: unknown subcommand %q\n%s\n", args[0], usage)
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != nargs {
		fmt.Fprintf(stderr, "pmihp-bench %s: got arguments %q after the flags, want %d\n%s\n", args[0], fs.Args(), nargs, usage)
		return 2
	}
	if err := cmd(fs.Args(), stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "pmihp-bench:", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// runFlags is the group the subcommands that mine in this process read.
type runFlags struct {
	scale   corpus.Scale
	verbose bool
}

func addRunFlags(fs *flag.FlagSet) *runFlags {
	rf := &runFlags{scale: corpus.Harness}
	fs.Func("scale", "corpus scale: small, harness (the default), or paper", func(s string) (err error) {
		rf.scale, err = corpus.ParseScale(s)
		return err
	})
	fs.BoolVar(&rf.verbose, "v", false, "log progress to stderr")
	return rf
}

// log returns the progress log: stderr under -v, nil otherwise.
func (rf *runFlags) log(stderr io.Writer) io.Writer {
	if rf.verbose {
		return stderr
	}
	return nil
}

// addProfileFlags registers the profile group and wraps cmd so the
// profiles cover its whole run.
func addProfileFlags(fs *flag.FlagSet, cmd command) command {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := fs.String("memprofile", "", "write a heap profile at exit to this file")
	return func(pos []string, stdout, stderr io.Writer) (err error) {
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		if *mem != "" {
			defer func() {
				runtime.GC() // settle live objects before the heap snapshot
				err = errors.Join(err, writeFile(*mem, pprof.WriteHeapProfile))
			}()
		}
		return cmd(pos, stdout, stderr)
	}
}

// writeFile creates path and writes it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

func list(_ []string, stdout, _ io.Writer) error {
	for _, e := range experiments.All() {
		fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
	}
	return nil
}

// exp runs the experiment its argument names, or all of them in order.
func exp(rf *runFlags) command {
	return func(pos []string, stdout, stderr io.Writer) error {
		exps := experiments.All()
		if pos[0] != "all" {
			e, ok := experiments.ByID(pos[0])
			if !ok {
				return usageError{fmt.Errorf("unknown experiment %q (see pmihp-bench list)", pos[0])}
			}
			exps = []experiments.Experiment{e}
		}
		params := experiments.Params{Scale: rf.scale, Log: rf.log(stderr)}
		for _, e := range exps {
			start := time.Now()
			out, err := e.Run(params)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintf(stdout, "== %s: %s\n\n%s\n(real time %.1fs)\n\n", e.ID, e.Title, out, time.Since(start).Seconds())
		}
		return nil
	}
}

// addFiguresFlags registers -json; the command measures the figure
// workloads and writes the JSON report there.
func addFiguresFlags(fs *flag.FlagSet, rf *runFlags) command {
	path := fs.String("json", "", "write the figure workloads' timings and outcomes to this JSON file (required)")
	return func(_ []string, stdout, stderr io.Writer) error {
		if *path == "" {
			return usageError{errors.New("figures requires -json FILE")}
		}
		rep, err := benchharness.Run(rf.scale, rf.log(stderr))
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(*path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d workloads, scale %s)\n", *path, len(rep.Workloads), rep.Scale)
		return nil
	}
}

// addSchedCompareFlags registers -report; the command prints the
// scheduler comparison and fails unless the elastic arm wins.
func addSchedCompareFlags(fs *flag.FlagSet, rf *runFlags) command {
	report := fs.String("report", "", "also write the JSON report to this file")
	return func(_ []string, stdout, stderr io.Writer) error {
		rep, err := benchharness.RunSchedCompare(rf.scale, rf.log(stderr))
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(stdout); err != nil {
			return err
		}
		if *report != "" {
			if err := writeFile(*report, rep.WriteJSON); err != nil {
				return err
			}
		}
		switch {
		case !rep.Identical:
			return errors.New("sched-compare itemsets differ from the reference")
		case rep.Elastic.Resizes == 0:
			return errors.New("sched-compare elastic arm never resized")
		case rep.Elastic.Imbalance >= rep.Static.Imbalance:
			return fmt.Errorf("sched-compare elastic imbalance %.3f did not beat static %.3f",
				rep.Elastic.Imbalance, rep.Static.Imbalance)
		case rep.Elastic.MaxBusySeconds >= rep.Static.MaxBusySeconds:
			return fmt.Errorf("sched-compare elastic modeled makespan %.3fs did not beat static %.3fs",
				rep.Elastic.MaxBusySeconds, rep.Static.MaxBusySeconds)
		}
		return nil
	}
}

// addServeLoadFlags registers the load-test flags; the command fails on
// any request error.
func addServeLoadFlags(fs *flag.FlagSet) command {
	var cfg benchharness.LoadConfig
	fs.StringVar(&cfg.BaseURL, "url", "", "base URL of the pmihp-serve daemon to load-test (required)")
	fs.IntVar(&cfg.Clients, "clients", 8, "concurrent clients")
	fs.IntVar(&cfg.Requests, "requests", 2000, "requests per phase")
	fs.Float64Var(&cfg.ZipfS, "zipf-s", 1.2, "Zipf s parameter for head selection (> 1)")
	fs.IntVar(&cfg.Limit, "limit", 5, "per-word term limit sent with each query")
	fs.Int64Var(&cfg.Seed, "seed", 1, "deterministic request-sequence seed")
	report := fs.String("report", "", "also write the JSON report to this file")
	return func(_ []string, stdout, _ io.Writer) error {
		if cfg.BaseURL == "" {
			return usageError{errors.New("serve-load requires -url URL")}
		}
		cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
		rep, err := benchharness.RunLoad(cfg, stdout)
		if err != nil {
			return err
		}
		if *report != "" {
			if err := writeFile(*report, rep.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *report)
		}
		if n := rep.Cold.Errors + rep.Warm.Errors; n > 0 {
			return fmt.Errorf("serve-load saw %d errors", n)
		}
		return nil
	}
}
