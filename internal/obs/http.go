package obs

import (
	"cmp"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"sync/atomic"
)

// currentRecorder backs the process-global "pmihp" expvar: expvar only
// supports one publication per name per process, so Handler points it
// at the most recently served recorder.
var currentRecorder atomic.Pointer[Recorder]

var publishPmihpVar = sync.OnceFunc(func() {
	expvar.Publish("pmihp", expvar.Func(func() any {
		return currentRecorder.Load().Snap()
	}))
})

// Handler returns the endpoint mux for the recorder:
//
//	/metrics      Prometheus text exposition of the live gauges
//	/snapshot     the same aggregates as one JSON object
//	/debug/vars   expvar JSON (standard vars plus the "pmihp" snapshot)
//	/debug/pprof  the standard Go profiling handlers
//
// The endpoint is unauthenticated and must only be bound to trusted
// interfaces (loopback, or a private cluster network) — pprof exposes
// heap and CPU profiles of the process.
func (r *Recorder) Handler() http.Handler {
	currentRecorder.Store(r)
	publishPmihpVar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, r.Snap())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.Snap())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (host:0 picks a free port) and serves the recorder's
// endpoint until the returned stop function is called. It returns the
// bound address.
func Serve(addr string, r *Recorder) (boundAddr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// writeProm renders the snapshot in the Prometheus text format.
func writeProm(w http.ResponseWriter, s Snapshot) {
	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("pmihp_passes_total", "Counting passes completed across all nodes.")
	fmt.Fprintf(w, "pmihp_passes_total %d\n", s.Passes)

	counter("pmihp_candidates_total", "Candidate itemsets counted by miners, by itemset size.")
	for _, k := range sortedKeys(s.CandidatesByK) {
		fmt.Fprintf(w, "pmihp_candidates_total{k=\"%d\"} %d\n", k, s.CandidatesByK[k])
	}
	counter("pmihp_polled_candidates_total", "Candidate itemsets counted by the poll service, by itemset size.")
	for _, k := range sortedKeys(s.PolledByK) {
		fmt.Fprintf(w, "pmihp_polled_candidates_total{k=\"%d\"} %d\n", k, s.PolledByK[k])
	}

	counter("pmihp_pruned_tht_total", "Candidates pruned by the IHP THT bound.")
	fmt.Fprintf(w, "pmihp_pruned_tht_total %d\n", s.PrunedTHT)
	counter("pmihp_pruned_subset_total", "Candidates pruned by the subset-infrequency check.")
	fmt.Fprintf(w, "pmihp_pruned_subset_total %d\n", s.PrunedSubset)
	counter("pmihp_trimmed_items_total", "Items removed by transaction trimming.")
	fmt.Fprintf(w, "pmihp_trimmed_items_total %d\n", s.TrimmedItems)
	counter("pmihp_pruned_tx_total", "Transactions pruned from working copies.")
	fmt.Fprintf(w, "pmihp_pruned_tx_total %d\n", s.PrunedTx)

	counter("pmihp_gen_seconds_total", "Wall clock spent in candidate generation and pruning.")
	fmt.Fprintf(w, "pmihp_gen_seconds_total %g\n", s.GenSeconds)
	counter("pmihp_scan_seconds_total", "Wall clock spent in counting scans.")
	fmt.Fprintf(w, "pmihp_scan_seconds_total %g\n", s.ScanSeconds)
	counter("pmihp_exchange_seconds_total", "Per-pass collective time attached to pass events.")
	fmt.Fprintf(w, "pmihp_exchange_seconds_total %g\n", s.ExchSeconds)
	counter("pmihp_wire_bytes_total", "Wire bytes attributed to recorded events.")
	fmt.Fprintf(w, "pmihp_wire_bytes_total %d\n", s.WireBytes)

	counter("pmihp_span_seconds_total", "Wall clock by span name (collectives, checkpoints, recovery).")
	for _, name := range sortedKeys(s.SpanSeconds) {
		fmt.Fprintf(w, "pmihp_span_seconds_total{name=%q} %g\n", name, s.SpanSeconds[name])
	}
	counter("pmihp_span_count_total", "Completed spans by name.")
	for _, name := range sortedKeys(s.SpanCount) {
		fmt.Fprintf(w, "pmihp_span_count_total{name=%q} %d\n", name, s.SpanCount[name])
	}
	counter("pmihp_span_bytes_total", "Wire bytes by span name.")
	for _, name := range sortedKeys(s.SpanBytes) {
		fmt.Fprintf(w, "pmihp_span_bytes_total{name=%q} %d\n", name, s.SpanBytes[name])
	}

	gauge("pmihp_pass_current", "Latest counting-pass itemset size per node.")
	for _, n := range sortedKeys(s.PassK) {
		fmt.Fprintf(w, "pmihp_pass_current{node=\"%d\"} %d\n", n, s.PassK[n])
	}
	gauge("pmihp_heartbeat_age_seconds", "Seconds since the last control-plane frame per node.")
	for _, n := range sortedKeys(s.BeatAge) {
		fmt.Fprintf(w, "pmihp_heartbeat_age_seconds{node=\"%d\"} %g\n", n, s.BeatAge[n])
	}
	for _, name := range sortedKeys(s.Gauges) {
		gauge("pmihp_"+name, "Cluster-level gauge.")
		fmt.Fprintf(w, "pmihp_%s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.NodeGauges) {
		gauge("pmihp_"+name, "Per-node gauge.")
		for _, n := range sortedKeys(s.NodeGauges[name]) {
			fmt.Fprintf(w, "pmihp_%s{node=\"%d\"} %d\n", name, n, s.NodeGauges[name][n])
		}
	}
	for _, name := range sortedKeys(s.FloatGauges) {
		gauge("pmihp_"+name, "Cluster-level gauge.")
		fmt.Fprintf(w, "pmihp_%s %g\n", name, s.FloatGauges[name])
	}
	for _, name := range sortedKeys(s.NodeFloats) {
		gauge("pmihp_"+name, "Per-node gauge.")
		for _, n := range sortedKeys(s.NodeFloats[name]) {
			fmt.Fprintf(w, "pmihp_%s{node=\"%d\"} %g\n", name, n, s.NodeFloats[name][n])
		}
	}
}
