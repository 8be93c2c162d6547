// Package streammine mines association rules over a sliding window of a
// live document stream. It keeps the paper's batch pipeline as the
// reference semantics: at every point in time the miner's frequent sets
// are exactly what core.MinePMIHP would compute from scratch over the
// current window — byte-identical itemsets, counts, and order.
//
// It gets there by doing exactly that. Batches append to the growable CSR
// store (txdb.AppendDB), whose day-group contiguity makes the window of
// the most recent W days one zero-copy suffix view, and every ingest
// re-mines that view with core.MineMIHP. Eviction is moving the window
// start; the append-only store keeps the bytes (see txdb.AppendDB).
//
// An optional exponential day-decay weighting (Config.Decay) replaces the
// integer support threshold with a weighted one. The arithmetic is fixed
// — per-day integer counts times the day weight, accumulated in ascending
// day order — so the weighted results are bit-identical to the naive
// weighted reference the equivalence gate (VerifyStep) runs.
package streammine

import (
	"fmt"
	"math"
	"slices"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Config configures a windowed miner.
type Config struct {
	// WindowDays is the sliding window width W in days: after every
	// ingest the window covers days (lastDay-W+1 .. lastDay). 0 means
	// unbounded — never evict.
	WindowDays int

	// Decay enables exponential day-decay weighting when positive: a
	// transaction on day d carries weight Decay^(lastDay-d), and an
	// itemset is frequent when its weighted support reaches the weighted
	// threshold (MinSupCount taken as an absolute weighted support, or
	// MinSupFrac of the total window weight). 0 disables weighting;
	// 1 weights every day equally (the integer semantics, on the float
	// path). Must be in [0, 1].
	Decay float64

	// Opts supplies the support threshold (MinSupFrac or MinSupCount)
	// and MaxK. The threshold is resolved against the window size with
	// the same mining.Options.MinCount rounding every batch miner uses.
	Opts mining.Options
}

func (c Config) validate() error {
	if c.WindowDays < 0 {
		return fmt.Errorf("streammine: negative window %d", c.WindowDays)
	}
	if c.Decay < 0 || c.Decay > 1 || math.IsNaN(c.Decay) {
		return fmt.Errorf("streammine: decay %v outside [0, 1]", c.Decay)
	}
	if c.Opts.MinSupCount <= 0 && !(c.Opts.MinSupFrac > 0) {
		return fmt.Errorf("streammine: no support threshold (set MinSupCount or MinSupFrac)")
	}
	return nil
}

// weightedMode reports whether the decay-weighted semantics are active.
func (c Config) weightedMode() bool { return c.Decay > 0 }

// Weighted is a frequent itemset under decay weighting: Count is the raw
// window support, Weight the decayed support that qualified it.
type Weighted struct {
	Set    itemset.Itemset
	Count  int
	Weight float64
}

// CompareWeighted is the canonical order on weighted results: weight
// descending, ties broken lexicographically. Weights of distinct sets can
// tie (equal counts on the same days), so the lexicographic tiebreak is
// what makes the order total and the harness comparison byte-stable.
func CompareWeighted(a, b Weighted) int {
	switch {
	case a.Weight > b.Weight:
		return -1
	case a.Weight < b.Weight:
		return 1
	}
	return itemset.Compare(a.Set, b.Set)
}

// IngestStats describes the work of the latest Ingest.
type IngestStats struct {
	// NewTx is the number of transactions the batch appended.
	NewTx int
	// ScannedTx is the number of window transactions the re-mine read:
	// the whole window after a non-empty batch, 0 after an empty one.
	ScannedTx int
	// WindowTx and WindowDayCount describe the window after the advance.
	WindowTx       int
	WindowDayCount int
}

// Miner is the windowed miner. It is not safe for concurrent use; wrap it
// in the replay loop (Replay) or your own single goroutine.
type Miner struct {
	cfg      Config
	store    *txdb.AppendDB
	frequent []itemset.Counted
	weighted []Weighted
	steps    int
	last     IngestStats
}

// New returns an empty miner over a vocabulary of numItems items (the
// store grows the vocabulary automatically when a batch coins new ids).
func New(numItems int, cfg Config) (*Miner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Miner{cfg: cfg, store: txdb.NewAppend(numItems)}, nil
}

// Steps returns the number of completed Ingest calls.
func (m *Miner) Steps() int { return m.steps }

// LastStats returns the work accounting of the latest Ingest.
func (m *Miner) LastStats() IngestStats { return m.last }

// Store exposes the backing append-only store (read-side methods only).
func (m *Miner) Store() *txdb.AppendDB { return m.store }

// WindowDB returns a zero-copy view of the window's transactions — the
// database a from-scratch miner would be handed. Empty store: empty view.
func (m *Miner) WindowDB() *txdb.DB {
	all := m.store.View()
	if m.cfg.WindowDays <= 0 || all.Len() == 0 {
		return all
	}
	// Comparing in int before SinceDay's int32 search keeps a window
	// wider than the stored day range from wrapping.
	start := all.DayOf(all.Len()-1) - m.cfg.WindowDays + 1
	if start <= all.DayOf(0) {
		return all
	}
	return m.store.SinceDay(start)
}

// Frequent returns the frequent itemsets of the current window with their
// raw support counts, in the order every batch miner in this module uses
// (descending count, ties lexicographic) — byte-identical to
// core.MinePMIHP on WindowDB when decay is off. Under decay the sets are
// the weighted-frequent ones (see WeightedFrequent for the qualifying
// weights). The slice is owned by the miner; do not mutate.
func (m *Miner) Frequent() []itemset.Counted { return m.frequent }

// WeightedFrequent returns the decay-weighted result (nil when Decay is
// 0): every itemset whose weighted support met the weighted threshold,
// ordered by CompareWeighted.
func (m *Miner) WeightedFrequent() []Weighted { return m.weighted }

// Ingest appends a batch of transactions (non-decreasing days continuing
// the store's last day — txdb.AppendDB's contract), moves the window to
// end at the last day, and re-mines it. The batch is rejected whole on an
// ordering violation and the miner's state is unchanged. An empty batch
// leaves the window and results untouched.
func (m *Miner) Ingest(batch []txdb.Transaction) error {
	lo := m.store.Len()
	if err := m.store.Append(batch); err != nil {
		return err
	}
	m.steps++
	if m.store.Len() == lo {
		m.last.NewTx, m.last.ScannedTx = 0, 0
		return nil
	}
	win := m.WindowDB()
	days := win.DayViews()
	m.last = IngestStats{NewTx: m.store.Len() - lo, ScannedTx: win.Len(), WindowTx: win.Len(), WindowDayCount: len(days)}
	if m.cfg.weightedMode() {
		return m.remineWeighted(win, days)
	}
	res, err := core.MineMIHP(win, m.cfg.Opts)
	if err != nil {
		return fmt.Errorf("streammine: re-mining the window: %w", err)
	}
	m.frequent = res.Frequent
	return nil
}

// remineWeighted mines the window under decay: core mines every set whose
// raw count could reach the weighted threshold, then each of them is
// recounted day by day and kept when its weighted sum qualifies.
func (m *Miner) remineWeighted(win *txdb.DB, days []*txdb.DB) error {
	last := days[len(days)-1].DayOf(0)
	weights := make([]float64, len(days))
	total := 0.0
	for i, day := range days {
		weights[i] = math.Pow(m.cfg.Decay, float64(last-day.DayOf(0)))
		total += float64(day.Len()) * weights[i]
	}
	minW := m.cfg.Opts.MinSupFrac * total
	if m.cfg.Opts.MinSupCount > 0 {
		minW = float64(m.cfg.Opts.MinSupCount)
	}
	// Every day weight is at most 1 and the counts are integers far below
	// 2^53, so fl(Σ c_d·w_d) ≤ Σ c_d: a set whose weighted support reaches
	// minW has a raw count of at least ⌈minW⌉, and mining the raw counts
	// at that threshold yields a superset of the weighted result. Raw
	// counts never exceed the window, so the cap only keeps the
	// conversion in range.
	opts := m.cfg.Opts
	opts.MinSupFrac = 0
	opts.MinSupCount = int(min(math.Ceil(minW), float64(win.Len()+1)))
	res, err := core.MineMIHP(win, opts)
	if err != nil {
		return fmt.Errorf("streammine: re-mining the window: %w", err)
	}
	sets := make([]itemset.Itemset, len(res.Frequent))
	for i, c := range res.Frequent {
		sets[i] = c.Set
	}
	sums := make([]float64, len(sets))
	for i, day := range days {
		counts := core.NewPollCounter(day, opts.Workers(), 0).CountBatch(sets, &res.Metrics)
		for j, c := range counts {
			sums[j] += float64(c) * weights[i]
		}
	}
	m.frequent, m.weighted = nil, nil
	for j, c := range res.Frequent {
		if sums[j] >= minW {
			m.frequent = append(m.frequent, c)
			m.weighted = append(m.weighted, Weighted{Set: c.Set, Count: c.Count, Weight: sums[j]})
		}
	}
	slices.SortFunc(m.weighted, CompareWeighted)
	return nil
}
