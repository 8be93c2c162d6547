// Command pmihp-node is a PMIHP cluster worker: a daemon that serves
// mining sessions driven by a `pmihp-mine cluster` coordinator, or leased
// to it by a `pmihp-mine sched` pool. It announces its bound address on
// stdout ("pmihp-node listening on HOST:PORT") so spawners can start it
// on an ephemeral port, then serves until killed.
//
// Usage:
//
//	pmihp-node [-listen 127.0.0.1:0] [-metrics-addr 127.0.0.1:9090] [-trace-json node.jsonl] [-v]
//	pmihp-node -pool 127.0.0.1:9100 -capacity 67108864   # register in a scheduler pool
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"pmihp/internal/distmine"
	"pmihp/internal/obs"
	"pmihp/internal/sched"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on (port 0 picks a free port)")
	pool := flag.String("pool", "", "register with the scheduler pool at this address and serve sessions leased through it")
	capacity := flag.Int64("capacity", 0, "session bytes admission control may reserve against this worker when pooled (0 = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address (/metrics, /snapshot, /debug/pprof)")
	traceJSON := flag.String("trace-json", "", "write hosted nodes' pass/span/poll events as JSON lines to this file")
	verbose := flag.Bool("v", false, "log session lifecycle to stderr")
	flag.Parse()
	// -capacity only means something to a pool's admission control, so a
	// worker that joins no pool rejects it rather than ignore it.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "capacity" && *pool == "" {
			fmt.Fprintln(os.Stderr, "pmihp-node: -capacity needs -pool")
			os.Exit(2)
		}
	})
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "pmihp-node: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	var opt distmine.DaemonOptions
	if *verbose {
		logger := log.New(os.Stderr, "", log.LstdFlags)
		opt.Logf = logger.Printf
	}
	if *metricsAddr != "" || *traceJSON != "" {
		var cfg obs.Config
		if *traceJSON != "" {
			// The daemon serves sessions until killed, so the trace file is
			// written line-by-line and never needs a final flush.
			f, err := os.Create(*traceJSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmihp-node: creating trace file: %v\n", err)
				os.Exit(1)
			}
			cfg.Writer = f
		}
		opt.Obs = obs.New(cfg)
		if *metricsAddr != "" {
			bound, _, err := obs.Serve(*metricsAddr, opt.Obs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmihp-node: metrics endpoint: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("pmihp-node metrics on http://%s/metrics\n", bound)
		}
	}
	d := distmine.NewDaemon(opt)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmihp-node: %v\n", err)
		os.Exit(1)
	}
	announce := log.New(os.Stdout, "", 0)
	announce.Printf("pmihp-node listening on %s", ln.Addr().String())
	if *pool != "" {
		// The membership heartbeats and rejoins in the background for the
		// daemon's whole lifetime; it dies with the process, so the pool's
		// heartbeat timeout is what deregisters a killed worker. The
		// initial join retries for a while so workers and the pool can be
		// started in any order.
		join := sched.JoinOptions{CapacityBytes: *capacity}
		if *verbose {
			join.Logf = log.New(os.Stderr, "", log.LstdFlags).Printf
		}
		var jerr error
		for attempt := 0; attempt < 40; attempt++ {
			if _, jerr = sched.Join(*pool, ln.Addr().String(), join); jerr == nil {
				break
			}
			time.Sleep(500 * time.Millisecond)
		}
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "pmihp-node: %v\n", jerr)
			os.Exit(1)
		}
		announce.Printf("pmihp-node joined pool %s", *pool)
	}
	if err := d.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "pmihp-node: %v\n", err)
		os.Exit(1)
	}
}
