// Command perfbench is the repository benchmark: it runs one workload
// (a TCP cluster, the simulated cluster, stream-to-serve, or open-loop
// queries) from a seed, checks every op's output against a reference,
// and prints the workload's metrics as the last line of standard output.
//
//	perfbench --workload tcp-8wk --seed 1 --seconds 20 --trace 0
//	perfbench compare old.txt new.txt   (two runs' saved standard output)
//
// --trace 0 measures the end-to-end metrics with observability off;
// --trace 1 measures the per-layer metrics (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit; the names and units
// match BENCHMARK.json.
type metricSpec struct{ name, unit string }

// endToEnd are the bounded end-to-end metrics, printed on the result
// line of a --trace 0 run. The tail figures op_p90_ms, op_p99_ms and
// slo_qps go to the report line only: on a shared 2-core host their
// run-to-run spread is wider than any bound the benchmark may set (see
// README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricSpec{
	{"text.todb_s", "s"},
	{"txdb.split_ms", "ms"},
	{"tht.build_ms", "ms"},
	{"tht.cascade_mb", "MB"},
	{"tht.prune_ratio", "ratio"},
	{"core.scan_s", "s"},
	{"core.cand_k2", "count"},
	{"core.cand_k3", "count"},
	{"core.passes", "count"},
	{"core.polled_sets", "count"},
	{"core.pollcounter_build_ms", "ms"},
	{"core.held_mb", "MB"},
	{"transport.wire_mb", "MB"},
	{"transport.msgs", "count"},
	{"transport.retries", "count"},
	{"distmine.boot_ms", "ms"},
	{"distmine.item_counts_s", "s"},
	{"distmine.tht_exchange_s", "s"},
	{"distmine.poll_s", "s"},
	{"distmine.final_s", "s"},
	{"distmine.wait_s", "s"},
	{"distmine.local_s", "s"},
	{"distmine.imbalance", "ratio"},
	{"cluster.sim_s", "s"},
	{"cluster.modeled_mb", "MB"},
	{"rules.gen_ms", "ms"},
	{"rules.count", "count"},
	{"streammine.ingest_ms", "ms"},
	{"streammine.scan_ratio", "ratio"},
	{"streammine.window_tx", "count"},
	{"streammine.state_mb", "MB"},
	{"serve.swap_ms", "ms"},
	{"serve.index_mb", "MB"},
	{"serve.lookup_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.queue_ms", "ms"},
	{"serve.errors", "count"},
	{"obs.overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(c config, o *outcome) error{
	"tcp-8wk":    runTCP,
	"sim-8day":   runSim,
	"stream-8wk": runStream,
	"serve-zipf": runServe,
}

// sizes are the input sizes and op floors of a run. The full sizes give a
// 20-second run 130–400 sequential ops on a 2-core host; the self-test
// uses tinySizes.
type sizes struct {
	minOps      int // sequential workloads: timed ops per run, at least
	minRequests int // serve-zipf: requests in the fixed-rate phase, at least
	setupReps   int

	tcpCorpora, tcpDocs                   int
	simCorpora, simDocs                   int
	streamCorpora, streamDocs, streamDays int
	serveDocs                             int
}

var fullSizes = sizes{
	minOps: 100, minRequests: 1000, setupReps: 9,
	tcpCorpora: 24, tcpDocs: 200,
	simCorpora: 24, simDocs: 160,
	streamCorpora: 3, streamDocs: 1200, streamDays: 80,
	serveDocs: 480,
}

// serveParams fix the serve-zipf load: the offered rate of the measured
// phase, the rate steps behind slo_qps, and the p99 limit a step must
// meet.
type serveParams struct {
	rate  float64
	steps []float64
	p99ms float64
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	serve    serveParams
	// corrupt flips a byte of every reference before the measured phase;
	// the self-test uses it to prove a wrong output counts as failed.
	corrupt bool
}

// outcome is what a workload hands back: its op logs, setup times, peak
// heap, per-layer samples, input stamp, and reconciliation problems.
type outcome struct {
	log      opLog // untraced ops: the end-to-end figures
	traced   opLog // traced ops (trace runs only)
	setup    []float64
	peakHeap float64
	openLoop *openLoop // serve-zipf only
	layer    layerSamples
	inputs   map[string]int64
	checks   []string
}

// openLoop are the figures of an open-loop workload, which its op log
// alone does not give: the achieved rate, the tail percentiles taken
// per block of requests, and the highest sustained offered rate.
type openLoop struct {
	opsPerS, p90, p99, sloQPS float64
}

func (o *outcome) check(format string, args ...any) {
	if len(o.checks) < 20 {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records the environment and inputs of a run; compare flags any
// difference between two reports' stamps.
type stamp struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Inputs     map[string]int64 `json:"inputs"`
	OfferedQPS float64          `json:"offered_qps"`
	RateSteps  []float64        `json:"rate_steps"`
	P99LimitMs float64          `json:"p99_limit_ms"`
}

// report is the full record of a run, printed on the line before the
// result.
type report struct {
	Stamp     stamp             `json:"stamp"`
	Result    result            `json:"result"`
	Unbounded map[string]metric `json:"unbounded_metrics,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	Checks    []string          `json:"reconciliation_failures,omitempty"`
}

// inputSeed derives the generator seed of one input from the run seed,
// so every corpus and query sequence follows from --seed alone.
func inputSeed(seed int64, what string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, what, i)
	return int64(h.Sum64() >> 1)
}

func run(c config) (*report, error) {
	fn, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	o := &outcome{layer: make(layerSamples), inputs: make(map[string]int64)}
	if err := fn(c, o); err != nil {
		return nil, err
	}
	if c.trace {
		if p0 := median(o.log.latMs); p0 > 0 && len(o.traced.latMs) > 0 {
			o.layer.add("obs.overhead_frac", 0, median(o.traced.latMs)/p0-1)
		} else {
			o.check("obs.overhead_frac: need traced and untraced ops (have %d and %d)", len(o.traced.latMs), len(o.log.latMs))
		}
	}
	rep := &report{
		Stamp: stamp{
			Workload:   c.workload,
			Seed:       c.seed,
			Seconds:    c.seconds,
			Trace:      c.trace,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Inputs:     o.inputs,
			OfferedQPS: c.serve.rate,
			RateSteps:  c.serve.steps,
			P99LimitMs: c.serve.p99ms,
		},
		Checks: o.checks,
	}
	res := &rep.Result
	res.Metrics = make(map[string]metric)
	res.Attempted = o.log.attempted + o.traced.attempted
	res.Failed = o.log.failed + o.traced.failed
	rep.Failures = append(append([]string(nil), o.log.failures...), o.traced.failures...)
	res.Correct = res.Failed == 0 && len(o.checks) == 0

	if !c.trace {
		v := map[string]float64{
			"setup_s":      median(o.setup),
			"op_p50_ms":    quantile(o.log.latMs, 0.50),
			"peak_heap_mb": o.peakHeap,
		}
		rep.Unbounded = map[string]metric{
			"op_p90_ms": {quantile(o.log.latMs, 0.90), "ms"},
			"op_p99_ms": {quantile(o.log.latMs, 0.99), "ms"},
		}
		if ol := o.openLoop; ol != nil {
			v["ops_per_s"] = ol.opsPerS
			rep.Unbounded["op_p90_ms"] = metric{ol.p90, "ms"}
			rep.Unbounded["op_p99_ms"] = metric{ol.p99, "ms"}
			rep.Unbounded["slo_qps"] = metric{ol.sloQPS, "1/s"}
		} else if o.log.busy > 0 {
			// A sequential workload runs one op at a time: its throughput
			// is completed ops over the time spent in ops.
			v["ops_per_s"] = float64(o.log.attempted-o.log.failed) / o.log.busy.Seconds()
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
		}
		return rep, nil
	}
	for _, m := range perLayer {
		// A layer the workload never calls spent no time and did no
		// work in it: it reports 0.
		v, _ := o.layer.value(m.name)
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return rep, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		if len(out) > 0 && v <= out[len(out)-1] {
			return nil, fmt.Errorf("rate steps must increase: %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	c := config{sizes: fullSizes}
	fs.StringVar(&c.workload, "workload", "", "workload to run: tcp-8wk, sim-8day, stream-8wk or serve-zipf")
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, observability off; 1: per-layer metrics from a traced run")
	// The serve-zipf load settings have no defaults: BENCHMARK.json's
	// command fixes them.
	fs.Float64Var(&c.serve.rate, "serve-rate", 0, "serve-zipf offered rate of the measured phase (requests/s)")
	steps := fs.String("serve-steps", "", "serve-zipf offered-rate steps behind slo_qps (requests/s, increasing, comma-separated)")
	fs.Float64Var(&c.serve.p99ms, "serve-p99-ms", 0, "serve-zipf p99 limit a rate step must meet (ms)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 || c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --trace 0|1 and positive --seconds")
		os.Exit(2)
	}
	c.trace = *trace == 1
	if *steps != "" {
		var err error
		if c.serve.steps, err = parseRates(*steps); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	if c.workload == "serve-zipf" && (c.serve.rate <= 0 || len(c.serve.steps) == 0 || c.serve.p99ms <= 0) {
		fmt.Fprintln(os.Stderr, "perfbench: serve-zipf needs positive --serve-rate, --serve-steps and --serve-p99-ms")
		os.Exit(2)
	}

	start := time.Now()
	rep, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", c.workload, c.seed, time.Since(start).Seconds())
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}
	for _, f := range rep.Checks {
		fmt.Fprintln(os.Stderr, "perfbench: reconciliation:", f)
	}
	full, err := json.Marshal(map[string]*report{"perfbench_report": rep})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", full, line)
}

// errWrongOutput marks an op whose output differs from its reference.
var errWrongOutput = errors.New("output differs from reference")
