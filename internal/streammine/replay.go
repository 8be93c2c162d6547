package streammine

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/rules"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// The replay harness: feed a day-partitioned document corpus through a
// Miner batch by batch, as if the archive were arriving live, and after
// every step optionally prove the miner's results byte-identical to an
// independent from-scratch mine of the same window. This is both
// the `pmihp-mine stream` execution path and the engine under the
// equivalence test suite and the stream-smoke CI job.

// ReplayConfig configures a replay run.
type ReplayConfig struct {
	// WindowDays, Decay, and Opts configure the miner (see Config).
	WindowDays int
	Decay      float64
	Opts       mining.Options

	// BatchDays is how many distinct days each ingest step covers
	// (default 1 — one advance per day).
	BatchDays int

	// MinConf is the confidence threshold for the rules published after
	// each step (default 0.5).
	MinConf float64

	// VerifyNodes enables the equivalence gate: after every step the
	// window is re-mined from scratch — core.MinePMIHP with this many
	// nodes when decay is off, the naive weighted reference when on —
	// and the results must match byte for byte. 0 disables the gate.
	VerifyNodes int

	// CheckpointPath, when set, persists the miner's state after every
	// step (PMCK StageStream). SessionID stamps the checkpoint lineage.
	CheckpointPath string
	SessionID      uint64

	// CrashAfterStep, when positive, simulates a crash immediately after
	// step N's checkpoint is written (1-based): the miner is discarded
	// and restored from CheckpointPath, and the run continues on the
	// restored state. This is the scripted-fault pattern of the
	// integration fault plans, applied to the ingest loop. Requires
	// CheckpointPath.
	CrashAfterStep int

	// Publish, when set, receives each step's rule set (word form,
	// canonical order) — wire it to a serve.Server swap or an HTTP
	// /admin/swap POST (see NewSwapPublisher).
	// Steps whose window licenses no rules are not published: the
	// serving layer rejects empty generations, and the previous
	// generation staying live is the right answer for a quiet window.
	Publish func(step int, ws []rules.WordRule) error

	// Logf, when set, receives one progress line per step.
	Logf func(format string, args ...any)
}

// StepReport records one ingest step of a replay.
type StepReport struct {
	Step           int   `json:"step"`
	Days           []int `json:"days"`
	NewTx          int   `json:"newTransactions"`
	WindowTx       int   `json:"windowTransactions"`
	WindowDayCount int   `json:"windowDayCount"`
	ScannedTx      int   `json:"scannedTransactions"`
	Frequent       int   `json:"frequentItemsets"`
	Rules          int   `json:"rules"`
	Verified       bool  `json:"verified"`
	Equivalent     bool  `json:"equivalent"`
	Resumed        bool  `json:"resumedFromCheckpoint"`
}

// Report is the JSON-serializable result of a replay run.
type Report struct {
	Documents     int          `json:"documents"`
	Vocabulary    int          `json:"vocabulary"`
	WindowDays    int          `json:"windowDays"`
	BatchDays     int          `json:"batchDays"`
	Decay         float64      `json:"decay,omitempty"`
	Steps         []StepReport `json:"steps"`
	AllEquivalent bool         `json:"allEquivalent"`
}

// Replay streams docs through a windowed miner. The vocabulary is
// built upfront over the whole corpus, exactly as the batch pipeline
// does: item ids stay assigned in lexical word order, which is the
// invariant that keeps id-order and word-order rule sorts in agreement
// (rules.Canon vs rules.CanonWord) and therefore keeps served output
// comparable to the offline Expander. It returns the report and a non-nil
// error on the first equivalence failure (the report still describes
// every completed step).
func Replay(docs []text.Document, cfg ReplayConfig) (*Report, error) {
	if cfg.BatchDays <= 0 {
		cfg.BatchDays = 1
	}
	if cfg.MinConf <= 0 {
		cfg.MinConf = 0.5
	}
	if cfg.CrashAfterStep > 0 && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("streammine: CrashAfterStep without CheckpointPath")
	}
	sorted := append([]text.Document(nil), docs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Day < sorted[j].Day })
	full, vocab := text.ToDB(sorted, nil)

	report := &Report{
		Documents:     full.Len(),
		Vocabulary:    vocab.Size(),
		WindowDays:    cfg.WindowDays,
		BatchDays:     cfg.BatchDays,
		Decay:         cfg.Decay,
		AllEquivalent: true,
	}
	miner, err := New(vocab.Size(), Config{WindowDays: cfg.WindowDays, Decay: cfg.Decay, Opts: cfg.Opts})
	if err != nil {
		return nil, err
	}

	for lo, step := 0, 1; lo < full.Len(); step++ {
		// A batch is the next BatchDays distinct days of transactions.
		hi, daysLeft := lo, cfg.BatchDays
		var days []int
		for hi < full.Len() && daysLeft > 0 {
			day := full.DayOf(hi)
			days = append(days, day)
			for hi < full.Len() && full.DayOf(hi) == day {
				hi++
			}
			daysLeft--
		}
		batch := make([]txdb.Transaction, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, full.Tx(i))
		}
		lo = hi

		if err := miner.Ingest(batch); err != nil {
			return report, err
		}
		sr := StepReport{Step: step, Days: days}
		if cfg.CheckpointPath != "" {
			if err := miner.SaveCheckpoint(cfg.CheckpointPath, cfg.SessionID); err != nil {
				return report, err
			}
		}
		if step == cfg.CrashAfterStep {
			restored, err := LoadCheckpoint(cfg.CheckpointPath)
			if err != nil {
				return report, fmt.Errorf("streammine: resume after crash at step %d: %w", step, err)
			}
			miner = restored
			sr.Resumed = true
		}
		stats := miner.LastStats()
		sr.NewTx, sr.ScannedTx = stats.NewTx, stats.ScannedTx
		sr.WindowTx, sr.WindowDayCount = stats.WindowTx, stats.WindowDayCount
		if sr.Resumed {
			// The restored miner never ran this step's Ingest; recover the
			// batch accounting from the step itself.
			sr.NewTx = len(batch)
		}
		sr.Frequent = len(miner.Frequent())

		if cfg.VerifyNodes > 0 {
			sr.Verified = true
			if err := VerifyStep(miner, cfg.VerifyNodes); err != nil {
				report.Steps = append(report.Steps, sr)
				report.AllEquivalent = false
				return report, fmt.Errorf("streammine: step %d: %w", step, err)
			}
			sr.Equivalent = true
		}

		rs := rules.Generate(miner.Frequent(), miner.WindowDB().Len(), cfg.MinConf)
		sr.Rules = len(rs)
		if cfg.Publish != nil && len(rs) > 0 {
			if err := cfg.Publish(step, rules.ToWordRules(rs, vocab.Word)); err != nil {
				report.Steps = append(report.Steps, sr)
				return report, fmt.Errorf("streammine: publishing step %d: %w", step, err)
			}
		}
		report.Steps = append(report.Steps, sr)
		if cfg.Logf != nil {
			cfg.Logf("step %d: days %v, +%d tx, window %d tx / %d days, scanned %d, %d frequent, %d rules%s",
				step, days, sr.NewTx, sr.WindowTx, sr.WindowDayCount, sr.ScannedTx, sr.Frequent, sr.Rules,
				map[bool]string{true: ", resumed from checkpoint", false: ""}[sr.Resumed])
		}
	}
	return report, nil
}

// VerifyStep proves the miner's current results byte-identical to a
// from-scratch mine of the same window: core.MinePMIHP (run over nodes
// partitions) when decay is off, the naive weighted reference
// (weightedReference) when on. It returns an attributed error naming the
// first diverging line.
func VerifyStep(m *Miner, nodes int) error {
	win := m.WindowDB()
	if m.cfg.weightedMode() {
		want := weightedReference(win, m.cfg)
		return diffRendered("weighted frequent", RenderWeighted(m.WeightedFrequent()), RenderWeighted(want))
	}
	if win.Len() == 0 {
		if len(m.Frequent()) != 0 {
			return fmt.Errorf("%d frequent sets over an empty window", len(m.Frequent()))
		}
		return nil
	}
	if nodes > win.Len() {
		nodes = win.Len()
	}
	res, err := core.MinePMIHP(win, core.PMIHPConfig{Nodes: nodes}, m.cfg.Opts)
	if err != nil {
		return err
	}
	return diffRendered("frequent", RenderCounted(m.Frequent()), RenderCounted(res.Result.Frequent))
}

// weightedReference is the oracle the weighted path is gated on: a naive
// level-wise miner over the window that shares no counting code with the
// Miner — no retained state and no core kernels. Candidates come from
// mining.AprioriGen; each candidate's per-day counts come from scanning
// that day's transactions, and its weighted support is Σ count_d·weight_d
// added in ascending day order, the arithmetic Config.Decay documents.
func weightedReference(win *txdb.DB, cfg Config) []Weighted {
	days := win.DayViews()
	if len(days) == 0 {
		return nil
	}
	last := days[len(days)-1].DayOf(0)
	weights := make([]float64, len(days))
	total := 0.0
	for i, day := range days {
		weights[i] = math.Pow(cfg.Decay, float64(last-day.DayOf(0)))
		total += float64(day.Len()) * weights[i]
	}
	minW := cfg.Opts.MinSupFrac * total
	if cfg.Opts.MinSupCount > 0 {
		minW = float64(cfg.Opts.MinSupCount)
	}
	var out []Weighted
	// keep weighs each candidate and returns the qualifying ones.
	keep := func(cands []itemset.Itemset) []itemset.Itemset {
		var next []itemset.Itemset
		for _, set := range cands {
			count, weight := 0, 0.0
			for i, day := range days {
				c := 0
				for t := 0; t < day.Len(); t++ {
					if set.SubsetOf(day.ItemsOf(t)) {
						c++
					}
				}
				count += c
				weight += float64(c) * weights[i]
			}
			if count > 0 && weight >= minW {
				out = append(out, Weighted{Set: set, Count: count, Weight: weight})
				next = append(next, set)
			}
		}
		return next
	}
	singles := make([]itemset.Itemset, win.NumItems())
	for it := range singles {
		singles[it] = itemset.Itemset{itemset.Item(it)}
	}
	prev := keep(singles)
	for k := 2; len(prev) > 1 && (cfg.Opts.MaxK == 0 || k <= cfg.Opts.MaxK); k++ {
		cands, _, _ := mining.AprioriGen(prev, itemset.SetOf(prev...))
		prev = keep(cands)
	}
	slices.SortFunc(out, CompareWeighted)
	return out
}

// RenderCounted renders a frequent list one line per set ("{1, 2} 5\n"),
// the byte form the equivalence gate compares.
func RenderCounted(cs []itemset.Counted) []byte {
	var b bytes.Buffer
	for _, c := range cs {
		fmt.Fprintf(&b, "%v %d\n", c.Set, c.Count)
	}
	return b.Bytes()
}

// RenderWeighted renders a weighted frequent list with the exact bit
// pattern of each weight ("{1, 2} 5 %x"), so the comparison admits no
// float tolerance.
func RenderWeighted(ws []Weighted) []byte {
	var b bytes.Buffer
	for _, e := range ws {
		fmt.Fprintf(&b, "%v %d %x\n", e.Set, e.Count, e.Weight)
	}
	return b.Bytes()
}

// diffRendered compares two rendered listings and reports the first
// diverging line.
func diffRendered(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Errorf("%s diverges at line %d: miner %q, from-scratch %q", what, i+1, g, w)
		}
	}
	return fmt.Errorf("%s diverges (%d vs %d bytes)", what, len(got), len(want))
}
