// Command pmihp-serve is the online rule-serving daemon: it loads a
// mined rule set (a pmihp-mine -rules-out JSON export, or mines one at
// startup from a corpus preset) into a compact immutable index and
// answers query-expansion and association queries over HTTP, with
// sharded read replicas, per-query deadlines, an LRU + singleflight
// cache per replica, and hot-swappable rule-set generations.
//
// Usage:
//
//	pmihp-mine -corpus b -minsup-count 3 -maxk 3 -rules-out rules.json
//	pmihp-serve -rules rules.json -addr :8397
//	curl 'localhost:8397/expand?q=market&limit=5'
//	curl 'localhost:8397/rules?head=market'
//	curl -X POST 'localhost:8397/admin/swap?path=/abs/new-rules.json'
//	kill -HUP <pid>          # reload and swap the -rules file in place
//
// Or mine at startup without an export file:
//
//	pmihp-serve -mine -corpus b -scale small -minsup-count 3 -minconf 0.6
//
// The /metrics and /snapshot endpoints expose QPS, latency quantiles,
// cache hit rates, the live generation id, and the index's bytes_held
// through the internal/obs exposition used by every other binary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/rules"
	"pmihp/internal/serve"
	"pmihp/internal/text"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "pmihp-serve:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set.
type options struct {
	addr     string
	rules    string
	mine     bool
	corpusID string
	scale    string
	minsup   float64
	minsupC  int
	maxK     int
	nodes    int
	minConf  float64
	replicas int
	cache    int
	deadline time.Duration
	limit    int
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("pmihp-serve", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8397", "listen address (host:0 picks a free port)")
	fs.StringVar(&o.rules, "rules", "", "serve this rules JSON export (pmihp-mine -rules-out); SIGHUP reloads it")
	fs.BoolVar(&o.mine, "mine", false, "mine the rule set at startup from a corpus preset instead of -rules")
	fs.StringVar(&o.corpusID, "corpus", "b", "corpus preset for -mine: a, b, c, dense, or skewed")
	fs.StringVar(&o.scale, "scale", "small", "corpus scale for -mine: small, harness, paper")
	fs.Float64Var(&o.minsup, "minsup", 0.02, "minimum support fraction for -mine")
	fs.IntVar(&o.minsupC, "minsup-count", 0, "absolute minimum support count for -mine (overrides -minsup)")
	fs.IntVar(&o.maxK, "maxk", 3, "largest itemset size for -mine (0 = unbounded)")
	fs.IntVar(&o.nodes, "nodes", 4, "simulated nodes for the -mine run")
	fs.Float64Var(&o.minConf, "minconf", 0.6, "minimum rule confidence for -mine")
	fs.IntVar(&o.replicas, "replicas", 0, "read replicas / cache shards (0 = GOMAXPROCS)")
	fs.IntVar(&o.cache, "cache", 0, "per-replica LRU entries (0 = default 4096, negative = disable)")
	fs.DurationVar(&o.deadline, "deadline", 100*time.Millisecond, "per-query deadline (0 = none)")
	fs.IntVar(&o.limit, "limit", 0, "default per-word term limit when a query passes none (0 = server default 10)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (o.rules == "") == !o.mine {
		return nil, fmt.Errorf("exactly one of -rules or -mine is required")
	}
	return o, nil
}

// mineRules mines the corpus preset and generates its rule set in word
// form, with the vocabulary resolved — the same path pmihp-mine
// -rules-out takes, inlined for export-free startup.
func mineRules(o *options, out io.Writer) ([]rules.WordRule, string, error) {
	sc, err := corpus.ParseScale(o.scale)
	if err != nil {
		return nil, "", err
	}
	cfg, err := corpus.Preset(o.corpusID, sc)
	if err != nil {
		return nil, "", err
	}
	docs, err := corpus.Generate(cfg)
	if err != nil {
		return nil, "", err
	}
	db, vocab := text.ToDB(docs, nil)
	result, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: o.nodes},
		mining.Options{MinSupFrac: o.minsup, MinSupCount: o.minsupC, MaxK: o.maxK})
	if err != nil {
		return nil, "", err
	}
	rs := rules.Generate(result.Result.Frequent, db.Len(), o.minConf)
	source := fmt.Sprintf("mined %s (%s) at startup: %d rules at minconf %.2f", cfg.Name, sc, len(rs), o.minConf)
	fmt.Fprintln(out, source)
	return rules.ToWordRules(rs, vocab.Word), source, nil
}

// loadInitial builds the first generation's rule set from the flags.
func loadInitial(o *options, out io.Writer) ([]rules.WordRule, string, error) {
	if o.mine {
		return mineRules(o, out)
	}
	f, err := os.Open(o.rules)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	ws, err := rules.ParseJSON(f)
	if err != nil {
		return nil, "", err
	}
	return ws, o.rules, nil
}

// run starts the daemon and blocks until the context is canceled (nil
// uses a signal context: SIGINT/SIGTERM stop, SIGHUP reloads -rules).
func run(args []string, out io.Writer, ctx context.Context) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	ws, source, err := loadInitial(o, out)
	if err != nil {
		return err
	}

	srv := serve.NewServer(serve.Config{
		Replicas:     o.replicas,
		CacheSize:    o.cache,
		Deadline:     o.deadline,
		DefaultLimit: o.limit,
	})
	g, err := srv.Swap(ws, source)
	if err != nil {
		return err
	}
	st := g.Index.Stats()
	fmt.Fprintf(out, "generation %d: %d rules, %d heads, %d words, %.1f KiB held\n",
		g.ID, st.Rules, st.Heads, st.Words, float64(st.BytesHeld)/1024)

	rec := obs.New(obs.Config{})
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", o.addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(rec)}
	fmt.Fprintf(out, "serving on http://%s (endpoints: /expand /rules /healthz /admin/swap /admin/heads /metrics)\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	for {
		select {
		case <-hup:
			if o.rules == "" {
				fmt.Fprintln(out, "SIGHUP ignored: no -rules file to reload")
				continue
			}
			g, err := srv.SwapFromFile(o.rules)
			if err != nil {
				fmt.Fprintf(out, "SIGHUP reload failed, keeping generation %d: %v\n", srv.Generation().ID, err)
				continue
			}
			fmt.Fprintf(out, "SIGHUP: swapped in generation %d from %s (%d rules)\n", g.ID, o.rules, g.Index.Stats().Rules)
		case err := <-errc:
			return fmt.Errorf("http server: %w", err)
		case <-ctx.Done():
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(shutdownCtx); err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
			fmt.Fprintln(out, "shut down")
			return nil
		}
	}
}
