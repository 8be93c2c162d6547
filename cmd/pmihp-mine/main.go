// Command pmihp-mine runs any of the implemented miners over a synthetic
// corpus preset and prints frequent itemsets, association rules, and run
// metrics. It can also act as the coordinator of a real multi-process
// cluster of pmihp-node workers.
//
// Usage:
//
//	pmihp-mine -algo pmihp -corpus b -scale small -minsup 0.02 -nodes 8 -rules 20
//	pmihp-mine -algo mihp -corpus a -minsup-count 5 -top 25
//	pmihp-mine -corpus b -minsup-count 3 -rules-out rules.json   # export for pmihp-serve
//	pmihp-mine -in docs.txt -algo pmihp -minsup-count 2       # line-format file
//	pmihp-mine -trec wsj_0401 -algo mihp -minsup 0.02         # TREC markup
//	pmihp-mine -spawn 4 -node-bin ./pmihp-node -minsup-count 2   # real 4-process cluster
//	pmihp-mine -cluster host1:9001,host2:9001 -minsup-count 2    # pre-started daemons
//	pmihp-mine -stream -stream-window 3 -minsup-count 3 -maxk 3  # windowed stream replay
//	pmihp-mine -pool-listen 127.0.0.1:0 -pool-wait 4 -sessions 2 -nodes 2 -grow 4  # multi-tenant scheduler
//
// Algorithms: apriori, dhp, fpgrowth, mihp, ihp, cd, dd, pmihp.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

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
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-mine:", err)
		os.Exit(1)
	}
}

// printSchedule reports how a simulated parallel run's work landed on
// its nodes: total time, per-node busy/idle split, and the pass
// imbalance ratio (max busy x nodes / total busy, 1.0 when perfectly
// balanced) — the same figure the /metrics endpoint exports as
// pmihp_pass_imbalance_ratio.
func printSchedule(out io.Writer, nodes int, pr *core.ParallelResult) {
	fmt.Fprintf(out, "simulated total time on %d nodes: %.1fs\n", nodes, pr.TotalSeconds)
	var maxBusy, sumBusy float64
	for _, n := range pr.Nodes {
		busy := n.Metrics.Work.Seconds()
		if maxBusy < busy {
			maxBusy = busy
		}
		sumBusy += busy
		idle := pr.TotalSeconds - busy
		if idle < 0 {
			idle = 0
		}
		fmt.Fprintf(out, "  node %2d: %d docs, busy %7.2fs, idle %7.2fs\n", n.Node, n.Docs, busy, idle)
	}
	if sumBusy > 0 {
		fmt.Fprintf(out, "pass imbalance ratio: %.3f (1.0 = perfectly balanced)\n",
			maxBusy*float64(len(pr.Nodes))/sumBusy)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pmihp-mine", flag.ContinueOnError)
	var (
		algo         = fs.String("algo", "pmihp", "apriori | dhp | fpgrowth | mihp | ihp | cd | dd | pmihp")
		corpusID     = fs.String("corpus", "b", "corpus preset: a, b, c, dense, or skewed")
		scale        = fs.String("scale", "small", "corpus scale: small, harness, paper")
		inFile       = fs.String("in", "", "mine a line-format documents file instead of a preset")
		trecFile     = fs.String("trec", "", "mine a TREC-markup file instead of a preset")
		minsup       = fs.Float64("minsup", 0.02, "minimum support fraction")
		minsupCount  = fs.Int("minsup-count", 0, "absolute minimum support count (overrides -minsup)")
		maxK         = fs.Int("maxk", 0, "largest itemset size to mine (0 = unbounded)")
		partitioner  = fs.String("partitioner", "count", "database-to-node split: count (equal document counts, the paper's) | work (equal estimated counting work); placement only — never changes the frequent itemsets")
		stragglerLag = fs.Int("straggler-lag", 0, "cluster runs: when a node's pass progress lags the fleet by this many passes, re-split the database without it (in scheduler mode, onto idle pool workers first) (0 = disabled)")
		nodes        = fs.Int("nodes", 4, "simulated nodes for cd/dd/pmihp")
		cluster      = fs.String("cluster", "", "comma-separated pmihp-node addresses: mine on a real multi-process cluster")
		spawn        = fs.Int("spawn", 0, "spawn N local pmihp-node worker processes and mine on them")
		poolListen   = fs.String("pool-listen", "", "scheduler mode: boot a worker pool on this address (pmihp-node workers register with -pool) and mine -sessions concurrent sessions through it")
		poolWait     = fs.Int("pool-wait", 0, "scheduler mode: wait for this many workers to join the pool before submitting sessions (0 = don't wait)")
		sessions     = fs.Int("sessions", 1, "scheduler mode: concurrent sessions to submit; each is verified byte-identical to a single-process reference")
		growTo       = fs.Int("grow", 0, "scheduler mode: elastically scale each session from -nodes up to this many logical nodes at the first checkpoint barrier (0 = no mid-run resize)")
		nodeBin      = fs.String("node-bin", "pmihp-node", "pmihp-node binary for -spawn")
		heartbeat    = fs.Duration("heartbeat", 0, "cluster heartbeat interval (0 = 500ms); timeout is 6x the interval")
		failPolicy   = fs.String("failure-policy", "abort", "on worker death: abort | reassign")
		top          = fs.Int("top", 15, "frequent itemsets to print")
		nRules       = fs.Int("rules", 10, "association rules to print (0 to skip)")
		minConf      = fs.Float64("minconf", 0.75, "minimum rule confidence")
		rulesOut     = fs.String("rules-out", "", "export the full rule set (at -minconf) as JSON to this file, for pmihp-serve")
		stream       = fs.Bool("stream", false, "replay the corpus as a live day stream through the windowed miner")
		streamWindow = fs.Int("stream-window", 3, "sliding window width in days for -stream (0 = unbounded)")
		streamBatch  = fs.Int("stream-batch-days", 1, "days ingested per -stream step")
		streamDecay  = fs.Float64("stream-decay", 0, "exponential day-decay weight in (0, 1] for -stream (0 = off)")
		streamVerify = fs.Int("stream-verify", 2, "per-step equivalence gate for -stream: re-mine each window from scratch on this many nodes and require byte-identical results (0 = off)")
		streamServe  = fs.String("stream-serve", "", "POST each -stream generation's rules to this pmihp-serve base URL's /admin/swap")
		streamCkpt   = fs.String("stream-checkpoint", "", "persist the -stream miner's state to this PMCK file after every step")
		streamCrash  = fs.Int("stream-crash-step", 0, "simulate a crash after this -stream step and resume from -stream-checkpoint (0 = never)")
		streamJSON   = fs.String("stream-json", "", "write the -stream replay report as JSON to this file (\"-\" = stdout)")
		metricsAddr  = fs.String("metrics-addr", "", "serve live metrics on this address (/metrics, /snapshot, /debug/pprof)")
		traceJSON    = fs.String("trace-json", "", "write per-pass/span/poll events as JSON lines to this file")
		linger       = fs.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint up this long after mining finishes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cluster != "" && *spawn > 0 {
		return fmt.Errorf("-cluster and -spawn are mutually exclusive")
	}
	if *poolListen != "" && (*cluster != "" || *spawn > 0) {
		return fmt.Errorf("-pool-listen is mutually exclusive with -cluster and -spawn")
	}

	var docs []text.Document
	label := ""
	switch {
	case *inFile != "":
		var err error
		docs, err = text.LoadDocuments(*inFile)
		if err != nil {
			return fmt.Errorf("loading %s: %w", *inFile, err)
		}
		label = *inFile
	case *trecFile != "":
		var err error
		docs, err = trec.ParseFile(*trecFile, nil)
		if err != nil {
			return fmt.Errorf("loading %s: %w", *trecFile, err)
		}
		label = *trecFile
	default:
		sc, err := corpus.ParseScale(*scale)
		if err != nil {
			return err
		}
		cfg, err := corpus.Preset(*corpusID, sc)
		if err != nil {
			return err
		}
		docs, err = corpus.Generate(cfg)
		if err != nil {
			return err
		}
		label = fmt.Sprintf("%s (%s)", cfg.Name, sc)
	}
	if len(docs) == 0 {
		return fmt.Errorf("corpus %s contains no documents", label)
	}

	if *stream {
		return runStream(out, docs, label, streamFlags{
			window: *streamWindow, batchDays: *streamBatch, decay: *streamDecay,
			verify: *streamVerify, serveURL: *streamServe, checkpoint: *streamCkpt,
			crashStep: *streamCrash, jsonOut: *streamJSON,
			opts:    mining.Options{MinSupFrac: *minsup, MinSupCount: *minsupCount, MaxK: *maxK},
			minConf: *minConf,
		})
	}

	db, vocab := text.ToDB(docs, nil)
	st := db.ComputeStats()
	fmt.Fprintf(out, "corpus %s: %d docs, %d unique words, mean %.0f words/doc\n",
		label, st.Docs, st.UniqueItems, st.MeanLen)

	part, err := mining.ParsePartitioner(*partitioner)
	if err != nil {
		return err
	}
	opts := mining.Options{MinSupFrac: *minsup, MinSupCount: *minsupCount, MaxK: *maxK, Partitioner: part}

	// Observability is opt-in and out-of-band: the recorder taps pass,
	// span, and poll events without influencing the mining itself.
	var rec *obs.Recorder
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
		rec = obs.New(obsCfg)
		if *metricsAddr != "" {
			bound, stop, serr := obs.Serve(*metricsAddr, rec)
			if serr != nil {
				return fmt.Errorf("metrics endpoint: %w", serr)
			}
			fmt.Fprintf(out, "metrics endpoint on http://%s/metrics\n", bound)
			defer func() {
				if *linger > 0 {
					fmt.Fprintf(out, "metrics endpoint lingering %v\n", *linger)
					time.Sleep(*linger)
				}
				stop()
			}()
		}
	}
	opts.Obs = rec

	var result *mining.Result
	switch {
	case *poolListen != "":
		policy, perr := distmine.ParseFailurePolicy(*failPolicy)
		if perr != nil {
			return perr
		}
		result, err = runSched(out, db, opts, schedFlags{
			listen:   *poolListen,
			wait:     *poolWait,
			sessions: *sessions,
			nodes:    *nodes,
			growTo:   *growTo,
			cluster: distmine.ClusterConfig{
				FailurePolicy:      policy,
				HeartbeatInterval:  *heartbeat,
				StragglerLagPasses: *stragglerLag,
				Logf:               log.New(os.Stderr, "", 0).Printf,
				Obs:                rec,
			},
		})
	case *cluster != "" || *spawn > 0:
		policy, perr := distmine.ParseFailurePolicy(*failPolicy)
		if perr != nil {
			return perr
		}
		cfg := distmine.ClusterConfig{
			FailurePolicy:      policy,
			HeartbeatInterval:  *heartbeat,
			StragglerLagPasses: *stragglerLag,
			Logf:               log.New(os.Stderr, "", 0).Printf,
			Obs:                rec,
		}
		addrs := strings.Split(*cluster, ",")
		if *spawn > 0 {
			spawner := distmine.NewSpawner(*nodeBin, os.Stderr)
			defer spawner.Stop()
			addrs, err = spawner.SpawnN(*spawn)
			if err != nil {
				return err
			}
			if policy == distmine.FailurePolicyReassign {
				cfg.Respawn = spawner.Spawn
			}
			fmt.Fprintf(out, "spawned %d pmihp-node workers: %s\n", *spawn, strings.Join(addrs, ", "))
		}
		cfg.Addrs = addrs
		var res *distmine.Result
		res, err = distmine.MineCluster(db, cfg, opts)
		if res != nil {
			result = &mining.Result{Frequent: res.Frequent, Metrics: res.Metrics}
			fmt.Fprintf(out, "cluster of %d nodes: %d wire messages, %d bytes, %d retries\n",
				len(addrs), res.Metrics.WireMessagesSent, res.Metrics.WireBytesSent, res.Metrics.WireRetries)
		}
	default:
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
			var pr *core.ParallelResult
			pr, err = countdist.Mine(db, countdist.Config{Nodes: *nodes}, opts)
			if pr != nil {
				result = pr.Result
				printSchedule(out, *nodes, pr)
			}
		case "dd":
			var pr *core.ParallelResult
			pr, err = datadist.Mine(db, datadist.Config{Nodes: *nodes}, opts)
			if pr != nil {
				result = pr.Result
				printSchedule(out, *nodes, pr)
			}
		case "pmihp":
			var pr *core.ParallelResult
			pr, err = core.MinePMIHP(db, core.PMIHPConfig{Nodes: *nodes}, opts)
			if pr != nil {
				result = pr.Result
				printSchedule(out, *nodes, pr)
			}
		default:
			return fmt.Errorf("unknown algorithm %q", *algo)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", *algo, err)
		}
	}
	if err != nil {
		return err
	}
	if traceFile != nil {
		if werr := rec.Err(); werr != nil {
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
		rs := rules.Generate(result.Frequent, db.Len(), *minConf)
		if *nRules > 0 {
			fmt.Fprintf(out, "\n%d rules at minconf %.2f; top %d:\n", len(rs), *minConf, *nRules)
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
			fmt.Fprintf(out, "wrote %d rules (minconf %.2f) to %s\n", len(rs), *minConf, *rulesOut)
		}
	}
	return nil
}
