// Command pmihp-mine mines a corpus on the runtime its first argument
// names: mine (any implemented miner in process; cd, dd and pmihp on a
// simulated cluster), cluster (PMIHP coordinating pmihp-node worker
// processes), sched (a worker pool running concurrent PMIHP sessions) or
// stream (a day-by-day replay through the windowed stream miner). Each
// subcommand accepts only the flags its runtime reads; `pmihp-mine
// <subcommand> -h` lists them.
//
// Usage:
//
//	pmihp-mine mine -algo pmihp -corpus b -scale small -minsup 0.02 -nodes 8 -rules 20
//	pmihp-mine mine -algo mihp -corpus a -minsup-count 5 -top 25
//	pmihp-mine mine -corpus b -minsup-count 3 -rules-out rules.json   # export for pmihp-serve
//	pmihp-mine mine -in docs.txt -algo pmihp -minsup-count 2          # line-format file
//	pmihp-mine mine -trec wsj_0401 -algo mihp -minsup 0.02            # TREC markup
//	pmihp-mine cluster -spawn 4 -node-bin ./pmihp-node -minsup-count 2   # real 4-process cluster
//	pmihp-mine cluster -addrs host1:9001,host2:9001 -minsup-count 2      # pre-started daemons
//	pmihp-mine stream -window 3 -minsup-count 3 -maxk 3                  # windowed stream replay
//	pmihp-mine sched -listen 127.0.0.1:9710 -wait 4 -sessions 2 -nodes 2 -grow 4
//
// Algorithms: apriori, dhp, fpgrowth, mihp, ihp, cd, dd, pmihp.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"pmihp/internal/apriori"
	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/countdist"
	"pmihp/internal/datadist"
	"pmihp/internal/dhp"
	"pmihp/internal/distmine"
	"pmihp/internal/fpgrowth"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/rules"
	"pmihp/internal/text"
	"pmihp/internal/trec"
	"pmihp/internal/txdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-mine:", err)
		os.Exit(1)
	}
}

const usage = "usage: pmihp-mine mine|cluster|stream|sched [flags]"

// A runner runs a parsed subcommand over the loaded documents.
type runner func(out io.Writer, docs []text.Document, label string) error

// A miner mines the database on one runtime for the report tail.
type miner func(out io.Writer, db *txdb.DB, opts mining.Options) (*mining.Result, error)

// run is the one options parser: the subcommand's flag set holds the
// input group plus only the groups and flags its runtime reads.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	fs := flag.NewFlagSet("pmihp-mine "+args[0], flag.ContinueOnError)
	in := addInputFlags(fs)
	var r runner
	switch args[0] {
	case "mine":
		r = addReportFlags(fs, in, addMineFlags(fs))
	case "cluster":
		r = addReportFlags(fs, in, addClusterFlags(fs, addRecoveryFlags(fs)))
	case "sched":
		r = addReportFlags(fs, in, addSchedFlags(fs, addRecoveryFlags(fs)))
	case "stream":
		r = addStreamFlags(fs, in)
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	docs, label, err := in.load()
	if err != nil {
		return err
	}
	return r(out, docs, label)
}

// input is the flag group every subcommand reads: where the documents
// come from, and the support, size and rule-confidence thresholds.
type input struct {
	corpus, scale, in, trec string
	opts                    mining.Options
	minConf                 float64
}

func addInputFlags(fs *flag.FlagSet) *input {
	in := &input{}
	fs.StringVar(&in.corpus, "corpus", "b", "corpus preset: a, b, c, dense, or skewed")
	fs.StringVar(&in.scale, "scale", "small", "corpus scale: small, harness, paper")
	fs.StringVar(&in.in, "in", "", "mine a line-format documents file instead of a preset")
	fs.StringVar(&in.trec, "trec", "", "mine a TREC-markup file instead of a preset")
	fs.Float64Var(&in.opts.MinSupFrac, "minsup", 0.02, "minimum support fraction")
	fs.IntVar(&in.opts.MinSupCount, "minsup-count", 0, "absolute minimum support count (overrides -minsup)")
	fs.IntVar(&in.opts.MaxK, "maxk", 0, "largest itemset size to mine (0 = unbounded)")
	fs.Float64Var(&in.minConf, "minconf", 0.75, "minimum rule confidence")
	return in
}

// load reads the documents the input flags name and a label for them.
func (in *input) load() ([]text.Document, string, error) {
	var docs []text.Document
	label := ""
	switch {
	case in.in != "":
		var err error
		docs, err = text.LoadDocuments(in.in)
		if err != nil {
			return nil, "", fmt.Errorf("loading %s: %w", in.in, err)
		}
		label = in.in
	case in.trec != "":
		var err error
		docs, err = trec.ParseFile(in.trec, nil)
		if err != nil {
			return nil, "", fmt.Errorf("loading %s: %w", in.trec, err)
		}
		label = in.trec
	default:
		sc, err := corpus.ParseScale(in.scale)
		if err != nil {
			return nil, "", err
		}
		cfg, err := corpus.Preset(in.corpus, sc)
		if err != nil {
			return nil, "", err
		}
		docs, err = corpus.Generate(cfg)
		if err != nil {
			return nil, "", err
		}
		label = fmt.Sprintf("%s (%s)", cfg.Name, sc)
	}
	if len(docs) == 0 {
		return nil, "", fmt.Errorf("corpus %s contains no documents", label)
	}
	return docs, label, nil
}

// addMineFlags registers the mine subcommand's own flags and returns its
// miner: any implemented algorithm in process.
func addMineFlags(fs *flag.FlagSet) miner {
	algo := fs.String("algo", "pmihp", "apriori | dhp | fpgrowth | mihp | ihp | cd | dd | pmihp")
	nodes := fs.Int("nodes", 4, "simulated nodes for cd/dd/pmihp")
	return func(out io.Writer, db *txdb.DB, opts mining.Options) (*mining.Result, error) {
		var result *mining.Result
		var pr *core.ParallelResult
		var err error
		switch *algo {
		case "apriori":
			result, err = apriori.Mine(db, opts)
		case "dhp":
			result, err = dhp.Mine(db, opts)
		case "fpgrowth":
			result, err = fpgrowth.Mine(db, opts)
		case "mihp":
			result, err = core.MineMIHP(db, opts)
		case "ihp":
			result, err = core.MineIHP(db, opts)
		case "cd":
			pr, err = countdist.Mine(db, countdist.Config{Nodes: *nodes}, opts)
		case "dd":
			pr, err = datadist.Mine(db, datadist.Config{Nodes: *nodes}, opts)
		case "pmihp":
			pr, err = core.MinePMIHP(db, core.PMIHPConfig{Nodes: *nodes}, opts)
		default:
			return nil, fmt.Errorf("unknown algorithm %q", *algo)
		}
		if pr != nil {
			result = pr.Result
			printSchedule(out, *nodes, pr)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", *algo, err)
		}
		return result, nil
	}
}

// printSchedule reports how a simulated parallel run's work landed on
// its nodes: total time, per-node busy/idle split, and the pass
// imbalance ratio (core.ImbalanceRatio, 1.0 when perfectly balanced) —
// the same figure the /metrics endpoint exports as
// pmihp_pass_imbalance_ratio.
func printSchedule(out io.Writer, nodes int, pr *core.ParallelResult) {
	fmt.Fprintf(out, "simulated total time on %d nodes: %.1fs\n", nodes, pr.TotalSeconds)
	busy := make([]float64, len(pr.Nodes))
	for i, n := range pr.Nodes {
		busy[i] = n.Metrics.Work.Seconds()
		idle := pr.TotalSeconds - busy[i]
		if idle < 0 {
			idle = 0
		}
		fmt.Fprintf(out, "  node %2d: %d docs, busy %7.2fs, idle %7.2fs\n", n.Node, n.Docs, busy[i], idle)
	}
	if ratio := core.ImbalanceRatio(busy); ratio > 0 {
		fmt.Fprintf(out, "pass imbalance ratio: %.3f (1.0 = perfectly balanced)\n", ratio)
	}
}

// addRecoveryFlags registers the recovery group, which cluster and sched
// share, and returns the one builder of their distmine.ClusterConfig.
func addRecoveryFlags(fs *flag.FlagSet) func(*obs.Recorder) distmine.ClusterConfig {
	cfg := distmine.ClusterConfig{FailurePolicy: distmine.FailurePolicyAbort, Logf: log.New(os.Stderr, "", 0).Printf}
	fs.Func("failure-policy", "on worker death: abort | reassign (default abort)", func(s string) (err error) {
		cfg.FailurePolicy, err = distmine.ParseFailurePolicy(s)
		return err
	})
	fs.IntVar(&cfg.StragglerLagPasses, "straggler-lag", 0, "when a node's pass progress lags the fleet by this many passes, re-split the database without it (under sched, onto idle pool workers first) (0 = disabled)")
	return func(rec *obs.Recorder) distmine.ClusterConfig {
		cfg.Obs = rec
		return cfg
	}
}

// addClusterFlags registers the cluster subcommand's own flags and
// returns its miner: PMIHP on pmihp-node daemons, either pre-started
// (-addrs) or spawned here (-spawn).
func addClusterFlags(fs *flag.FlagSet, clusterConfig func(*obs.Recorder) distmine.ClusterConfig) miner {
	addrs := fs.String("addrs", "", "comma-separated pmihp-node addresses to mine on")
	spawn := fs.Int("spawn", 0, "spawn N local pmihp-node worker processes and mine on them")
	nodeBin := fs.String("node-bin", "pmihp-node", "pmihp-node binary for -spawn")
	return func(out io.Writer, db *txdb.DB, opts mining.Options) (*mining.Result, error) {
		if (*addrs == "") == (*spawn <= 0) {
			return nil, errors.New("exactly one of -addrs and -spawn is required")
		}
		cfg := clusterConfig(opts.Obs)
		cfg.Addrs = strings.Split(*addrs, ",")
		if *spawn > 0 {
			spawner := distmine.NewSpawner(*nodeBin, os.Stderr)
			defer spawner.Stop()
			var err error
			if cfg.Addrs, err = spawner.SpawnN(*spawn); err != nil {
				return nil, err
			}
			if cfg.FailurePolicy == distmine.FailurePolicyReassign {
				cfg.Respawn = spawner.Spawn
			}
			fmt.Fprintf(out, "spawned %d pmihp-node workers: %s\n", *spawn, strings.Join(cfg.Addrs, ", "))
		}
		res, err := distmine.MineCluster(db, cfg, opts)
		if res == nil {
			return nil, err
		}
		fmt.Fprintf(out, "cluster of %d nodes: %d wire messages, %d bytes, %d retries\n",
			len(cfg.Addrs), res.Metrics.WireMessagesSent, res.Metrics.WireBytesSent, res.Metrics.WireRetries)
		return &mining.Result{Frequent: res.Frequent, Metrics: res.Metrics}, err
	}
}

// addReportFlags registers the report group, which mine, cluster and
// sched share, and returns their runner: it builds the database and the
// observability recorder, mines with m, and prints the metrics, the
// frequent itemsets and the rules.
func addReportFlags(fs *flag.FlagSet, in *input, m miner) runner {
	var part mining.Partitioner
	fs.Func("partitioner", "database-to-node split: count (equal document counts, the paper's; the default) | work (equal estimated counting work); placement only — never changes the frequent itemsets", func(s string) (err error) {
		part, err = mining.ParsePartitioner(s)
		return err
	})
	top := fs.Int("top", 15, "frequent itemsets to print")
	nRules := fs.Int("rules", 10, "association rules to print (0 to skip)")
	rulesOut := fs.String("rules-out", "", "export the full rule set (at -minconf) as JSON to this file, for pmihp-serve")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics on this address (/metrics, /snapshot, /debug/pprof)")
	traceJSON := fs.String("trace-json", "", "write per-pass/span/poll events as JSON lines to this file")
	return func(out io.Writer, docs []text.Document, label string) error {
		db, vocab := text.ToDB(docs, nil)
		st := db.ComputeStats()
		fmt.Fprintf(out, "corpus %s: %d docs, %d unique words, mean %.0f words/doc\n",
			label, st.Docs, st.UniqueItems, st.MeanLen)

		opts := in.opts
		opts.Partitioner = part

		// Observability is opt-in and out-of-band: the recorder taps pass,
		// span, and poll events without influencing the mining itself.
		var traceFile *os.File
		if *metricsAddr != "" || *traceJSON != "" {
			var obsCfg obs.Config
			if *traceJSON != "" {
				f, ferr := os.Create(*traceJSON)
				if ferr != nil {
					return fmt.Errorf("creating trace file: %w", ferr)
				}
				traceFile = f
				obsCfg.Writer = f
			}
			opts.Obs = obs.New(obsCfg)
			if *metricsAddr != "" {
				bound, stop, serr := obs.Serve(*metricsAddr, opts.Obs)
				if serr != nil {
					return fmt.Errorf("metrics endpoint: %w", serr)
				}
				fmt.Fprintf(out, "metrics endpoint on http://%s/metrics\n", bound)
				defer stop()
			}
		}

		result, err := m(out, db, opts)
		if err != nil {
			return err
		}
		if traceFile != nil {
			if werr := opts.Obs.Err(); werr != nil {
				fmt.Fprintf(os.Stderr, "pmihp-mine: trace truncated: %v\n", werr)
			}
			if cerr := traceFile.Close(); cerr != nil {
				return fmt.Errorf("closing trace file: %w", cerr)
			}
			fmt.Fprintf(out, "wrote observability trace to %s\n", *traceJSON)
		}

		fmt.Fprintf(out, "%s\n", result.Metrics.String())
		byK := result.CountByK()
		fmt.Fprintf(out, "frequent itemsets found: %d total", len(result.Frequent))
		for k := 1; ; k++ {
			n, ok := byK[k]
			if !ok {
				break
			}
			fmt.Fprintf(out, ", %d of size %d", n, k)
		}
		fmt.Fprintln(out)

		fmt.Fprintf(out, "\ntop %d frequent itemsets (size >= 2):\n", *top)
		printed := 0
		for _, c := range result.Frequent {
			if len(c.Set) < 2 {
				continue
			}
			fmt.Fprintf(out, "  %5d  %v\n", c.Count, vocab.Words(c.Set))
			printed++
			if printed >= *top {
				break
			}
		}

		if *nRules > 0 || *rulesOut != "" {
			rs := rules.Generate(result.Frequent, db.Len(), in.minConf)
			if *nRules > 0 {
				fmt.Fprintf(out, "\n%d rules at minconf %.2f; top %d:\n", len(rs), in.minConf, *nRules)
				for i, r := range rs {
					if i >= *nRules {
						break
					}
					fmt.Fprintf(out, "  %s\n", r.Render(vocab.Word))
				}
			}
			if *rulesOut != "" {
				f, ferr := os.Create(*rulesOut)
				if ferr != nil {
					return fmt.Errorf("creating rules export: %w", ferr)
				}
				werr := rules.WriteJSON(f, rs, vocab.Word)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return fmt.Errorf("writing rules export: %w", werr)
				}
				fmt.Fprintf(out, "wrote %d rules (minconf %.2f) to %s\n", len(rs), in.minConf, *rulesOut)
			}
		}
		return nil
	}
}
