// Command pmihp-serve is the online rule-serving daemon: it loads a
// mined rule set (a `pmihp-mine mine -rules-out` JSON export) into a
// compact immutable index and answers query-expansion and association
// queries over HTTP, with sharded read replicas, per-query deadlines, an
// LRU + singleflight cache per replica, and hot-swappable rule-set
// generations.
//
// Usage:
//
//	pmihp-mine mine -corpus b -minsup-count 3 -maxk 3 -rules-out rules.json
//	pmihp-serve -rules rules.json -addr :8397
//	curl 'localhost:8397/expand?q=market&limit=5'
//	curl 'localhost:8397/rules?head=market'
//	curl --data-binary @new-rules.json 'localhost:8397/admin/swap'
//	kill -HUP <pid>          # reload and swap the -rules file in place
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

	"pmihp/internal/obs"
	"pmihp/internal/serve"
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
	replicas int
	cache    int
	deadline time.Duration
	limit    int
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("pmihp-serve", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8397", "listen address (host:0 picks a free port)")
	fs.StringVar(&o.rules, "rules", "", "serve this rules JSON export (pmihp-mine mine -rules-out); SIGHUP reloads it (required)")
	fs.IntVar(&o.replicas, "replicas", 0, "read replicas / cache shards (0 = GOMAXPROCS)")
	fs.IntVar(&o.cache, "cache", 0, "per-replica LRU entries (0 = default 4096, negative = disable)")
	fs.DurationVar(&o.deadline, "deadline", 100*time.Millisecond, "per-query deadline (0 = none)")
	fs.IntVar(&o.limit, "limit", 0, "default per-word term limit when a query passes none (0 = server default 10)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.rules == "" {
		return nil, fmt.Errorf("-rules is required")
	}
	return o, nil
}

// run starts the daemon and blocks until the context is canceled (nil
// uses a signal context: SIGINT/SIGTERM stop, SIGHUP reloads -rules).
func run(args []string, out io.Writer, ctx context.Context) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	srv := serve.NewServer(serve.Config{
		Replicas:     o.replicas,
		CacheSize:    o.cache,
		Deadline:     o.deadline,
		DefaultLimit: o.limit,
	})
	g, err := srv.SwapFromFile(o.rules)
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
