package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// tinySizes shrink every workload to a fraction of a second.
var tinySizes = sizes{
	minOps: 4, minRequests: 50, setupReps: 2,
	tcpCorpora: 2, tcpDocs: 40,
	simCorpora: 2, simDocs: 48,
	streamCorpora: 2, streamDocs: 120, streamDays: 12,
	serveDocs: 96,
}

func tinyConfig(workload string, seed int64, trace bool) config {
	return config{
		workload: workload,
		seed:     seed,
		seconds:  0.2,
		trace:    trace,
		sizes:    tinySizes,
		serve:    serveParams{rate: 2000, steps: []float64{1000, 2000}, p99ms: 50},
	}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
		}
	}
	return endToEnd, perLayer
}

// TestWorkloadsTiny runs every workload at a tiny size on two seeds, with
// and without tracing, and checks that each run prints exactly the
// metrics BENCHMARK.json names, with their units, with no failed op and
// no reconciliation failure.
func TestWorkloadsTiny(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for name := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				rep, err := run(tinyConfig(name, seed, trace))
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				res := rep.Result
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s seed %d trace %v: correct %v, %d of %d failed: %v %v",
						name, seed, trace, res.Correct, res.Failed, res.Attempted, rep.Failures, rep.Checks)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := res.Metrics[m]
					if !ok || got.Unit != unit {
						t.Errorf("%s trace %v: metric %s = %+v, want unit %q", name, trace, m, got, unit)
					}
				}
				if !trace {
					for m, v := range res.Metrics {
						if !(v.Value > 0) {
							t.Errorf("%s seed %d: end-to-end metric %s = %v, want > 0", name, seed, m, v.Value)
						}
					}
				}
			}
		}
	}
}

// TestCorruptedReferenceFails feeds each workload a corrupted reference
// and checks that its ops count as failed and the run as incorrect.
func TestCorruptedReferenceFails(t *testing.T) {
	for name := range workloads {
		c := tinyConfig(name, 1, false)
		c.corrupt = true
		rep, err := run(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res := rep.Result; res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted reference: correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestCompareFlagsStamps checks that comparing two reports flags every
// stamp difference.
func TestCompareFlagsStamps(t *testing.T) {
	a := stamp{Workload: "sim-8day", Seed: 1, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0",
		Inputs: map[string]int64{"docs": 10}, OfferedQPS: 6000, RateSteps: []float64{1, 2}, P99LimitMs: 10}
	b := a
	b.Seed, b.NProc = 2, 4
	b.Inputs = map[string]int64{"docs": 11}
	b.RateSteps = []float64{1, 3}
	got := stampDiffs(a, b)
	want := []string{"inputs.docs: 10 -> 11", "nproc: 2 -> 4", "rate_steps: [1,2] -> [1,3]", "seed: 1 -> 2"}
	if len(got) != len(want) {
		t.Fatalf("stampDiffs = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stampDiffs = %q, want %q", got, want)
		}
	}
	if d := stampDiffs(a, a); len(d) != 0 {
		t.Errorf("identical stamps differ: %q", d)
	}
}
