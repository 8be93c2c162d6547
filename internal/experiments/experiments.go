// Package experiments reproduces every table and figure of the paper's
// evaluation (section 3) plus the ablations DESIGN.md calls out. Each
// experiment builds its workload from the synthetic corpus presets, runs
// the relevant miners, and renders a paper-style text table. See
// EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"

	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// Params configures an experiment run.
type Params struct {
	// Scale selects the corpus size (small, harness, paper).
	Scale corpus.Scale

	// MemoryBudget is the candidate-memory constraint for Apriori and Count
	// Distribution, standing in for the paper's 416 MB JVM heap. Zero means
	// auto-calibrate: the budget is placed between the candidate footprints
	// of the 2.00% and 1.75% runs, reproducing the paper's observation that
	// both algorithms run at 2% and fail below it. The *existence* of the
	// memory cliff is the phenomenon; its location is a testbed constant
	// (see DESIGN.md §2).
	MemoryBudget int64

	// MinSups are the minimum support levels of the E1/E2 sweeps
	// (default: the paper's 5%, 4%, 3%, 2%, 1.75%).
	MinSups []float64

	// Nodes are the cluster sizes of the scaling experiments
	// (default: the paper's 1, 2, 4, 8).
	Nodes []int

	// Log receives progress lines; nil silences them.
	Log io.Writer
}

// WithDefaults fills unset fields with the paper's values.
func (p Params) WithDefaults() Params {
	if len(p.MinSups) == 0 {
		p.MinSups = []float64{0.05, 0.04, 0.03, 0.02, 0.0175}
	}
	if len(p.Nodes) == 0 {
		p.Nodes = []int{1, 2, 4, 8}
	}
	return p
}

func (p Params) logf(format string, args ...interface{}) {
	if p.Log != nil {
		fmt.Fprintf(p.Log, format+"\n", args...)
	}
}

// Experiment is a runnable entry of the registry.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) (fmt.Stringer, error)
}

var registry []Experiment

func register(id, title string, run func(Params) (fmt.Stringer, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// built caches generated corpora within a process so experiments sharing a
// preset do not regenerate it.
type built struct {
	db    *txdb.DB
	vocab *text.Vocabulary
	stats txdb.Stats
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string]*built{}
)

func buildCorpus(cfg corpus.Config) (*built, error) {
	key := fmt.Sprintf("%+v", cfg)
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if b, ok := corpusCache[key]; ok {
		return b, nil
	}
	docs, err := corpus.Generate(cfg)
	if err != nil {
		return nil, err
	}
	db, vocab := text.ToDB(docs, nil)
	b := &built{db: db, vocab: vocab, stats: db.ComputeStats()}
	corpusCache[key] = b
	return b, nil
}

// calibrateBudget places the memory budget between the conceptual candidate
// footprints of the 2.00% and 1.75% sweeps over db (geometric mean), so the
// sweep reproduces the paper's "runs at 2%, out of memory below 2%".
func calibrateBudget(db *txdb.DB) int64 {
	counts := db.ItemCounts()
	f := func(frac float64) int64 {
		_, f1 := mining.FrequentItems(counts, mining.Options{MinSupFrac: frac}.MinCount(db.Len()))
		n := len(f1)
		return mining.CandidateBytes(2, n*(n-1)/2)
	}
	at2, at175 := f(0.02), f(0.0175)
	if at175 <= at2 {
		return at2 + 1
	}
	return int64(math.Sqrt(float64(at2) * float64(at175)))
}

// ---- rendering helpers ----

// table accumulates fixed-width rows for paper-style text output.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out []byte
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				out = append(out, ' ', ' ')
			}
			out = append(out, []byte(pad(c, widths[i]))...)
		}
		out = append(out, '\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = dashes(w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return string(out)
}

func pad(s string, w int) string {
	for len(s) < w {
		s = " " + s
	}
	return s
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// secs renders simulated seconds compactly.
func secs(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func count(n int) string { return fmt.Sprintf("%d", n) }

func fcount(n float64) string { return fmt.Sprintf("%.0f", n) }
