// Package benchharness runs the workloads behind the paper's evaluation
// figures (the E1–E10 experiments) and reports what each one reproduces.
//
// workloads() is the one list of figure workloads. Each run returns an
// Outcome: the modeled quantities the figures are drawn from — simulated
// seconds, the resident footprint, charged work units, and the candidate
// and frequent itemsets counted per k. These are exact functions of corpus
// and options, so TestFigureOutcomesGolden pins them with == against a
// golden file on any host and under any scheduler. BenchmarkFigures times
// the same table (go test -bench Figures), and cmd/pmihp-bench -benchjson
// writes each workload's ns/op and allocs/op beside its Outcome as JSON.
// Wall-clock time is reported here, never gated: identical runs on one
// host spread far wider than any useful bound, so the wall-clock gate is
// perfbench's same-host comparison against the parent commit.
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

// Outcome is what one workload reproduces. Every field is an exact
// function of corpus and options: identical across runs, hosts, worker
// counts and schedulers.
type Outcome struct {
	// SimSeconds is the simulated execution time of the modeled run (total
	// cluster time for parallel workloads), 0 when the workload does not
	// simulate a cluster.
	SimSeconds float64 `json:"sim_seconds"`
	// GlobalCountSeconds is Figure 8's quantity, the simulated global
	// support counting phase of a deferred-polling PMIHP run
	// (core.ParallelResult.GlobalCountSeconds); 0 for every other workload.
	GlobalCountSeconds float64 `json:"global_count_seconds,omitempty"`
	// BytesHeld is the run's resident-structure footprint
	// (mining.Metrics.PeakHeldBytes summed across nodes): the CSR database
	// and working copies, THT matrices, compressed inverted files, and
	// candidate structures, accounted by their MemBytes methods. Unlike
	// bytes_per_op it does not count allocation churn.
	BytesHeld int64 `json:"bytes_held"`
	// WorkUnits is the charged work (mining.Metrics.Work.Units summed
	// across nodes); E1's modeled times are these units in seconds.
	WorkUnits int64 `json:"work_units"`
	// CandidatesByK counts the candidate k-itemsets counted in scans, and
	// FrequentByK the frequent k-itemsets found, per k.
	CandidatesByK map[int]int `json:"candidates_by_k"`
	FrequentByK   map[int]int `json:"frequent_by_k"`
}

// outcomeOf reads the Outcome of a finished run.
func outcomeOf(r *mining.Result, simSeconds float64) Outcome {
	return Outcome{
		SimSeconds:    simSeconds,
		BytesHeld:     r.Metrics.PeakHeldBytes,
		WorkUnits:     r.Metrics.Work.Units,
		CandidatesByK: r.Metrics.CandidatesByK,
		FrequentByK:   r.CountByK(),
	}
}

// Result is the measurement of one workload: wall clock and allocations
// under testing.Benchmark, beside the workload's Outcome.
type Result struct {
	Name        string  `json:"name"`
	Fig         string  `json:"fig"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Outcome
}

// Report is a full harness run.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Scale      string   `json:"scale"`
	Workloads  []Result `json:"workloads"`
}

// The databases a workload can run against: the three figure corpora at
// the run's scale, corpus B at paper scale for the smoke entry, the
// stop-word-heavy dense variant of B that exercises the bitmap posting
// kernels, and the day-skewed variant of B.
const (
	dbA = iota
	dbB
	dbC
	dbPaperB
	dbDense
	dbSkewed
	numDBs
)

type corpora [numDBs]*txdb.DB

// loadCorpora generates every workload database at the given scale.
func loadCorpora(scale corpus.Scale) (*corpora, error) {
	cfgs := [numDBs]corpus.Config{
		dbA:      corpus.CorpusA(scale),
		dbB:      corpus.CorpusB(scale),
		dbC:      corpus.CorpusC(scale),
		dbPaperB: corpus.CorpusB(corpus.Paper),
		dbDense:  corpus.CorpusDense(scale),
		dbSkewed: corpus.CorpusSkewed(scale),
	}
	var dbs corpora
	for i, cfg := range cfgs {
		docs, err := corpus.Generate(cfg)
		if err != nil {
			return nil, err
		}
		dbs[i], _ = text.ToDB(docs, nil)
	}
	return &dbs, nil
}

// workload is one figure entry: run executes a single mining run.
type workload struct {
	name string
	fig  string
	run  func(dbs *corpora) (Outcome, error)
}

// workloads returns the figure workloads, each on one of the corpora.
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
	seq := func(mine func(*txdb.DB, mining.Options) (*mining.Result, error), opts mining.Options, db int) func(*corpora) (Outcome, error) {
		return func(dbs *corpora) (Outcome, error) {
			r, err := mine(dbs[db], opts)
			if err != nil {
				return Outcome{}, err
			}
			return outcomeOf(r, 0), nil
		}
	}
	parallel := func(r *core.ParallelResult, err error) (Outcome, error) {
		if err != nil {
			return Outcome{}, err
		}
		o := outcomeOf(r.Result, r.TotalSeconds)
		o.GlobalCountSeconds = r.GlobalCountSeconds
		return o, nil
	}
	pmihp := func(nodes int, mode core.PollMode, opts mining.Options, db int) func(*corpora) (Outcome, error) {
		return func(dbs *corpora) (Outcome, error) {
			return parallel(core.MinePMIHP(dbs[db], core.PMIHPConfig{Nodes: nodes, Mode: mode}, opts))
		}
	}
	return []workload{
		{"E1Fig4_Apriori", "fig4", seq(apriori.Mine, optsA, dbA)},
		{"E1Fig4_DHP", "fig4", seq(dhp.Mine, optsA, dbA)},
		{"E1Fig4_FPGrowth", "fig4", seq(fpgrowth.Mine, optsA, dbA)},
		{"E1Fig4_MIHP", "fig4", seq(core.MineMIHP, optsA, dbA)},
		{"E2Fig5_CountDistribution", "fig5", func(dbs *corpora) (Outcome, error) {
			return parallel(countdist.Mine(dbs[dbA], countdist.Config{Nodes: 8}, optsA))
		}},
		{"E2Fig5_PMIHP", "fig5", pmihp(8, core.Interleaved, optsA, dbA)},
		{"E3Fig6_PMIHP1", "fig6", pmihp(1, core.Interleaved, optsB, dbB)},
		{"E3Fig6_PMIHP2", "fig6", pmihp(2, core.Interleaved, optsB, dbB)},
		{"E3Fig6_PMIHP4", "fig6", pmihp(4, core.Interleaved, optsB, dbB)},
		{"E3Fig6_PMIHP8", "fig6", pmihp(8, core.Interleaved, optsB, dbB)},
		{"E3PaperSmoke_PMIHP8", "fig6", pmihp(8, core.Interleaved, optsSmoke, dbPaperB)},
		{"E5Fig8_DeferredPolling", "fig8", pmihp(4, core.Deferred, optsB, dbB)},
		{"E8Fig11_AprioriC3", "fig11", seq(apriori.Mine, optsB, dbB)},
		{"E9EightWeek_PMIHP1", "sec3", pmihp(1, core.Interleaved, optsC, dbC)},
		{"E9EightWeek_PMIHP8", "sec3", pmihp(8, core.Interleaved, optsC, dbC)},
		{"E9Dense_PMIHP8", "sec3", pmihp(8, core.Interleaved, optsDense, dbDense)},
		{"E10SkewStatic_PMIHP8", "skew", pmihp(8, core.Interleaved, optsSkewStatic, dbSkewed)},
		{"E10Skew_PMIHP8", "skew", pmihp(8, core.Interleaved, optsSkewWork, dbSkewed)},
	}
}

// Run generates the corpora at the given scale and measures every workload
// under testing.Benchmark. log, when non-nil, receives one progress line
// per workload.
func Run(scale corpus.Scale, log io.Writer) (*Report, error) {
	dbs, err := loadCorpora(scale)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale.String(),
	}
	for _, w := range workloads() {
		var out Outcome
		var runErr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := w.run(dbs)
				if err != nil {
					runErr = err
					b.FailNow()
				}
				out = o
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
			Outcome:     out,
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
