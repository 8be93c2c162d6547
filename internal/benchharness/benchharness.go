// Package benchharness runs the repository's per-figure benchmark workloads
// (the E1–E9 experiments behind the paper's evaluation) under the standard
// testing.Benchmark driver and reports machine-readable results: wall-clock
// ns/op, allocations per op, and — for the simulated-cluster workloads —
// the simulated seconds of the modeled run.
//
// cmd/pmihp-bench exposes it via -benchjson, writing BENCH_<rev>.json files
// that scripts/bench.sh diffs against a committed baseline to catch
// wall-clock regressions; the simulated seconds double as a determinism
// check, since they must not drift at all across revisions that only change
// physical implementation.
package benchharness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"pmihp/internal/apriori"
	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/countdist"
	"pmihp/internal/dhp"
	"pmihp/internal/fpgrowth"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// Result is the measurement of one workload.
type Result struct {
	Name        string  `json:"name"`
	Fig         string  `json:"fig"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SimSeconds is the simulated execution time of the modeled run (total
	// cluster time for parallel workloads), 0 when the workload does not
	// simulate a cluster. It is implementation-independent: any change here
	// means the cost model's behavior changed, not just its speed.
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// BytesHeld is the run's deterministic resident-structure footprint
	// (mining.Metrics.PeakHeldBytes summed across nodes): the CSR database
	// and working copies, THT matrices, compressed inverted files, and
	// candidate structures, accounted by their MemBytes methods. Unlike
	// bytes_per_op it does not count allocation churn, so it tracks layout
	// changes exactly and reproducibly.
	BytesHeld int64 `json:"bytes_held,omitempty"`
}

// SchemaVersion is the report format version. Version 2 added bytes_held
// and the schema_version field itself; Compare rejects baselines written
// before it.
const SchemaVersion = 2

// Report is a full harness run.
type Report struct {
	SchemaVersion int      `json:"schema_version,omitempty"`
	Rev           string   `json:"rev"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Scale         string   `json:"scale"`
	Workloads     []Result `json:"workloads"`
}

// corpora holds the generated databases a workload can run against: the
// three figure corpora at the harness scale, corpus B at paper scale for
// the always-on smoke entry, and the stop-word-heavy dense variant of B
// that exercises the bitmap posting kernels.
type corpora struct {
	A, B, C *txdb.DB
	PaperB  *txdb.DB
	Dense   *txdb.DB
	Skewed  *txdb.DB
}

// workload is one benchmark entry: run executes a single mining run and
// returns the simulated seconds (0 when not applicable) with the run's
// deterministic held-bytes footprint.
type workload struct {
	name string
	fig  string
	run  func(dbs *corpora) (simSeconds float64, heldBytes int64, err error)
}

// workload database selectors for the seq/pmihp constructors.
const (
	useA = iota
	useB
	useC
	usePaperB
	useDense
	useSkewed
)

// workloads mirrors bench_test.go's per-figure benchmarks, at the given
// corpus scale.
func workloads() []workload {
	optsA := mining.Options{MinSupFrac: 0.02, MaxK: 4}
	optsB := mining.Options{MinSupCount: 2, MaxK: 3}
	optsC := mining.Options{MinSupCount: 2, MaxK: 2}
	// The smoke entry mines paper-scale corpus B on 8 nodes at the Fig-4/5
	// support, so every harness run — whatever its -scale — exercises the
	// paper-size data layout and records its held-bytes footprint.
	optsSmoke := mining.Options{MinSupFrac: 0.02, MaxK: 3}
	// The dense entry mines the no-stoplist corpus, where the frequent
	// words appear in most documents; a high support fraction keeps the
	// candidates to exactly those dense posting lists, which is the
	// workload the bitmap kernels exist for.
	optsDense := mining.Options{MinSupFrac: 0.10, MaxK: 3}
	// The skew pair mines the day-skewed corpus twice — once under each
	// partitioner — at the Fig-6 support, so the report shows the static
	// equal-count cost next to the work-balanced cost on the same data.
	// The frequent itemsets are identical; only the simulated seconds move.
	optsSkewStatic := mining.Options{MinSupCount: 2, MaxK: 3, Partitioner: mining.PartitionByCount}
	optsSkewWork := mining.Options{MinSupCount: 2, MaxK: 3, Partitioner: mining.PartitionByWork}
	pick := func(dbs *corpora, which int) *txdb.DB {
		switch which {
		case useB:
			return dbs.B
		case useC:
			return dbs.C
		case usePaperB:
			return dbs.PaperB
		case useDense:
			return dbs.Dense
		case useSkewed:
			return dbs.Skewed
		}
		return dbs.A
	}
	seq := func(mine func(*txdb.DB, mining.Options) (*mining.Result, error), opts mining.Options, which int) func(*corpora) (float64, int64, error) {
		return func(dbs *corpora) (float64, int64, error) {
			r, err := mine(pick(dbs, which), opts)
			if err != nil {
				return 0, 0, err
			}
			return 0, r.Metrics.PeakHeldBytes, nil
		}
	}
	pmihp := func(nodes int, mode core.PollMode, opts mining.Options, which int) func(*corpora) (float64, int64, error) {
		return func(dbs *corpora) (float64, int64, error) {
			r, err := core.MinePMIHP(pick(dbs, which), core.PMIHPConfig{Nodes: nodes, Mode: mode}, opts)
			if err != nil {
				return 0, 0, err
			}
			return r.TotalSeconds, r.Result.Metrics.PeakHeldBytes, nil
		}
	}
	return []workload{
		{"E1Fig4_Apriori", "fig4", seq(apriori.Mine, optsA, useA)},
		{"E1Fig4_DHP", "fig4", seq(dhp.Mine, optsA, useA)},
		{"E1Fig4_FPGrowth", "fig4", seq(fpgrowth.Mine, optsA, useA)},
		{"E1Fig4_MIHP", "fig4", seq(core.MineMIHP, optsA, useA)},
		{"E2Fig5_CountDistribution", "fig5", func(dbs *corpora) (float64, int64, error) {
			r, err := countdist.Mine(dbs.A, countdist.Config{Nodes: 8}, optsA)
			if err != nil {
				return 0, 0, err
			}
			return r.TotalSeconds, r.Result.Metrics.PeakHeldBytes, nil
		}},
		{"E2Fig5_PMIHP", "fig5", pmihp(8, core.Interleaved, optsA, useA)},
		{"E3Fig6_PMIHP1", "fig6", pmihp(1, core.Interleaved, optsB, useB)},
		{"E3Fig6_PMIHP2", "fig6", pmihp(2, core.Interleaved, optsB, useB)},
		{"E3Fig6_PMIHP4", "fig6", pmihp(4, core.Interleaved, optsB, useB)},
		{"E3Fig6_PMIHP8", "fig6", pmihp(8, core.Interleaved, optsB, useB)},
		{"E3PaperSmoke_PMIHP8", "fig6", pmihp(8, core.Interleaved, optsSmoke, usePaperB)},
		{"E5Fig8_DeferredPolling", "fig8", pmihp(4, core.Deferred, optsB, useB)},
		{"E8Fig11_AprioriC3", "fig11", seq(apriori.Mine, optsB, useB)},
		{"E9EightWeek_PMIHP1", "sec3", pmihp(1, core.Interleaved, optsC, useC)},
		{"E9EightWeek_PMIHP8", "sec3", pmihp(8, core.Interleaved, optsC, useC)},
		{"E9Dense_PMIHP8", "sec3", pmihp(8, core.Interleaved, optsDense, useDense)},
		{"E10SkewStatic_PMIHP8", "skew", pmihp(8, core.Interleaved, optsSkewStatic, useSkewed)},
		{"E10Skew_PMIHP8", "skew", pmihp(8, core.Interleaved, optsSkewWork, useSkewed)},
	}
}

// Run generates the corpora at the given scale and measures every workload.
// log, when non-nil, receives one progress line per workload.
func Run(rev string, scale corpus.Scale, log io.Writer) (*Report, error) {
	docsA, err := corpus.Generate(corpus.CorpusA(scale))
	if err != nil {
		return nil, err
	}
	dbA, _ := text.ToDB(docsA, nil)
	docsB, err := corpus.Generate(corpus.CorpusB(scale))
	if err != nil {
		return nil, err
	}
	dbB, _ := text.ToDB(docsB, nil)
	docsC, err := corpus.Generate(corpus.CorpusC(scale))
	if err != nil {
		return nil, err
	}
	dbC, _ := text.ToDB(docsC, nil)
	dbPaperB := dbB
	if scale != corpus.Paper {
		docsPB, err := corpus.Generate(corpus.CorpusB(corpus.Paper))
		if err != nil {
			return nil, err
		}
		dbPaperB, _ = text.ToDB(docsPB, nil)
	}
	docsD, err := corpus.Generate(corpus.CorpusDense(scale))
	if err != nil {
		return nil, err
	}
	dbD, _ := text.ToDB(docsD, nil)
	docsS, err := corpus.Generate(corpus.CorpusSkewed(scale))
	if err != nil {
		return nil, err
	}
	dbS, _ := text.ToDB(docsS, nil)
	dbs := &corpora{A: dbA, B: dbB, C: dbC, PaperB: dbPaperB, Dense: dbD, Skewed: dbS}

	rep := &Report{
		SchemaVersion: SchemaVersion,
		Rev:           rev,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         scale.String(),
	}
	for _, w := range workloads() {
		var sim float64
		var held int64
		var runErr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, h, err := w.run(dbs)
				if err != nil {
					runErr = err
					b.FailNow()
				}
				sim, held = s, h
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("benchharness: %s: %w", w.name, runErr)
		}
		res := Result{
			Name:        w.name,
			Fig:         w.fig,
			Iterations:  br.N,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			SimSeconds:  sim,
			BytesHeld:   held,
		}
		rep.Workloads = append(rep.Workloads, res)
		if log != nil {
			fmt.Fprintf(log, "%-28s %12.0f ns/op %9d allocs/op %8.2f held-MB %10.4f sim-s\n",
				w.name, res.NsPerOp, res.AllocsPerOp, float64(res.BytesHeld)/(1<<20), res.SimSeconds)
		}
	}
	return rep, nil
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a report written by WriteJSON.
func ReadJSON(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchharness: %s: %w", path, err)
	}
	return &r, nil
}

// MissingFromBase returns the names of workloads present in cur but absent
// from base: entries added since the baseline was written, which Compare
// necessarily skips. Callers should surface them as a notice — the new
// workloads ran ungated and the baseline wants regenerating — not as a
// failure, so adding a benchmark never breaks the gate by itself.
func MissingFromBase(base, cur *Report) []string {
	known := make(map[string]bool, len(base.Workloads))
	for _, w := range base.Workloads {
		known[w.Name] = true
	}
	var missing []string
	for _, w := range cur.Workloads {
		if !known[w.Name] {
			missing = append(missing, w.Name)
		}
	}
	return missing
}

// simTol is the relative tolerance for comparing simulated seconds with a
// baseline. On one host simulated clocks are bit-exact — they count whole
// picoseconds and every charge rounds once — so a run reproduces a baseline
// written there exactly. The tolerance exists only for a baseline written
// on another host, whose compiler may round a charge's float cost-model
// arithmetic differently in the last bit (a fused multiply-add, say); any
// genuine cost-model change moves the totals by many orders of magnitude
// more than this.
const simTol = 1e-9

// Compare reports the workloads of cur that regressed against base: ns/op
// or bytes_held worse by more than tolFrac (e.g. 0.20 for 20%), or simulated
// seconds that differ by more than simTol (the cost model must be stable). Workloads missing from either report are skipped. A
// baseline older than SchemaVersion lacks or misreports sim_seconds and
// bytes_held, so it is an error rather than a weaker comparison.
func Compare(base, cur *Report, tolFrac float64) ([]string, error) {
	if base.SchemaVersion < SchemaVersion {
		return nil, fmt.Errorf("benchharness: baseline has schema version %d, want %d; regenerate it with pmihp-bench -benchjson",
			base.SchemaVersion, SchemaVersion)
	}
	byName := make(map[string]Result, len(base.Workloads))
	for _, w := range base.Workloads {
		byName[w.Name] = w
	}
	var bad []string
	for _, w := range cur.Workloads {
		b, ok := byName[w.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && w.NsPerOp > b.NsPerOp*(1+tolFrac) {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%)",
				w.Name, w.NsPerOp, b.NsPerOp, 100*(w.NsPerOp/b.NsPerOp-1)))
		}
		if b.BytesHeld > 0 && float64(w.BytesHeld) > float64(b.BytesHeld)*(1+tolFrac) {
			bad = append(bad, fmt.Sprintf("%s: %d bytes held vs baseline %d (+%.1f%%)",
				w.Name, w.BytesHeld, b.BytesHeld, 100*(float64(w.BytesHeld)/float64(b.BytesHeld)-1)))
		}
		if d := w.SimSeconds - b.SimSeconds; d > simTol*(w.SimSeconds+b.SimSeconds) || -d > simTol*(w.SimSeconds+b.SimSeconds) {
			bad = append(bad, fmt.Sprintf("%s: simulated %v s vs baseline %v s (cost model drift)",
				w.Name, w.SimSeconds, b.SimSeconds))
		}
	}
	return bad, nil
}
