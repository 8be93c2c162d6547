// Package mining defines the types shared by every miner in this module:
// run options, the mining result, the work/memory accounting that feeds the
// simulated-time cluster model, and a brute-force reference implementation
// used by the test suites as ground truth.
package mining

import (
	"errors"
	"fmt"

	"pmihp/internal/itemset"
	"pmihp/internal/obs"
	"pmihp/internal/txdb"
)

// Options configures a mining run. Exactly one of MinSupFrac or MinSupCount
// should be set; a positive MinSupCount wins.
type Options struct {
	// MinSupFrac is the minimum support level as a fraction of the database
	// size (the paper writes 2% as "minimum support level of 2").
	MinSupFrac float64

	// MinSupCount is the absolute minimum support count; when positive it
	// overrides MinSupFrac (the paper's Corpus B run uses "a minimum support
	// count of 2 documents").
	MinSupCount int

	// MaxK bounds the size of mined itemsets; 0 means unbounded. The node
	// scaling experiments mine up to frequent 3-itemsets.
	MaxK int

	// PartitionSize is the number of frequent items per Multipass partition
	// (paper: 100). Ignored by the single-pass algorithms.
	PartitionSize int

	// THTEntries is the number of TID-hash-table slots per item for the
	// *global* table (paper: 400); each of N nodes builds a local table of
	// THTEntries/N slots. Ignored by non-IHP algorithms.
	THTEntries int

	// MemoryBudget caps the candidate memory a miner may hold at once, in
	// bytes; 0 means unlimited. Apriori and Count Distribution abort with
	// ErrMemoryExceeded when the candidate set outgrows the budget, which
	// reproduces the paper's observation that both were "not able to run
	// within the memory constraint of 416 Mbytes" below 2% support.
	MemoryBudget int64

	// DisableTrimming turns off transaction trimming/pruning in the miners
	// that support it (the A4 ablation).
	DisableTrimming bool

	// GlobalCandidateBatch is the number of accumulated global candidate
	// itemsets that triggers a PMIHP polling round (paper: 20,000).
	GlobalCandidateBatch int

	// Obs is the observability sink for per-pass events, spans, and poll
	// batches. nil (the default) disables observability entirely: emission
	// sites check Obs.Enabled() before constructing events or reading
	// clocks, so the disabled path costs no allocations on hot counting
	// loops. Obs never influences mining results, modeled work charges, or
	// metrics — it is a read-only tap.
	Obs *obs.Recorder

	// IntraNodeWorkers bounds the shared-memory parallelism each (simulated)
	// node applies to its counting scans: candidate counting passes, posting
	// construction, and the pass-1 THT build shard their transaction ranges
	// across up to this many OS-level workers. 0 selects GOMAXPROCS; 1
	// reproduces the serial kernels. The setting changes wall-clock time
	// only: per-shard counts merge by integer sums, so mining results and
	// simulated-clock charges are identical for every value. In a parallel
	// run the pool is divided among the simulated nodes, which already run
	// concurrently.
	IntraNodeWorkers int

	// Partitioner selects how parallel miners split the database across
	// nodes: PartitionByCount (the zero value) reproduces the paper's
	// equal-document-count chronological split, PartitionByWork balances
	// the per-transaction estimated counting work instead. Frequent
	// itemsets are identical either way (PMIHP resolves global candidates
	// by exact polling); per-node work units and simulated seconds differ
	// by design — balancing them is what the work partitioner is for.
	Partitioner Partitioner
}

// Workers resolves IntraNodeWorkers (0 means GOMAXPROCS).
func (o Options) Workers() int { return ResolveWorkers(o.IntraNodeWorkers) }

// MinCount resolves the options against a database size.
func (o Options) MinCount(dbLen int) int {
	if o.MinSupCount > 0 {
		return o.MinSupCount
	}
	n := int(o.MinSupFrac*float64(dbLen) + 0.999999)
	if n < 1 {
		n = 1
	}
	return n
}

// WithDefaults fills unset tuning fields with the paper's values.
func (o Options) WithDefaults() Options {
	if o.PartitionSize <= 0 {
		o.PartitionSize = 100
	}
	if o.THTEntries <= 0 {
		o.THTEntries = 400
	}
	if o.GlobalCandidateBatch <= 0 {
		o.GlobalCandidateBatch = 20000
	}
	return o
}

// ErrMemoryExceeded is returned when a miner's candidate memory outgrows
// Options.MemoryBudget.
var ErrMemoryExceeded = errors.New("mining: candidate memory exceeds budget")

// IsMemoryErr reports whether err is (or wraps) ErrMemoryExceeded.
func IsMemoryErr(err error) bool { return errors.Is(err, ErrMemoryExceeded) }

// Result is the outcome of a mining run.
type Result struct {
	// Frequent holds every frequent itemset with its support count, in
	// deterministic order (descending count, then lexicographic).
	Frequent []itemset.Counted

	// Metrics is the run's work and candidate accounting.
	Metrics Metrics
}

// FrequentOfSize returns the frequent k-itemsets in the result.
func (r *Result) FrequentOfSize(k int) []itemset.Counted {
	var out []itemset.Counted
	for _, c := range r.Frequent {
		if len(c.Set) == k {
			out = append(out, c)
		}
	}
	return out
}

// CountByK tallies frequent itemsets per size.
func (r *Result) CountByK() map[int]int {
	m := make(map[int]int)
	for _, c := range r.Frequent {
		m[len(c.Set)]++
	}
	return m
}

// Set returns the result's itemsets as a membership set (for equivalence
// checks between miners).
func (r *Result) Set() *itemset.Set {
	s := itemset.NewSet()
	for _, c := range r.Frequent {
		s.Add(c.Set)
	}
	return s
}

// SameFrequentSets reports whether two results found exactly the same
// frequent itemsets with the same supports, and if not, describes the first
// difference found.
func SameFrequentSets(a, b *Result) (bool, string) {
	am := make(map[string]int, len(a.Frequent))
	for _, c := range a.Frequent {
		am[c.Set.Key()] = c.Count
	}
	if len(am) != len(a.Frequent) {
		return false, fmt.Sprintf("first result lists %d itemsets but only %d distinct (duplicates)", len(a.Frequent), len(am))
	}
	bm := make(map[string]int, len(b.Frequent))
	for _, c := range b.Frequent {
		bm[c.Set.Key()] = c.Count
	}
	if len(bm) != len(b.Frequent) {
		return false, fmt.Sprintf("second result lists %d itemsets but only %d distinct (duplicates)", len(b.Frequent), len(bm))
	}
	for k, av := range am {
		bv, ok := bm[k]
		if !ok {
			return false, fmt.Sprintf("itemset %v (count %d) missing from second result", itemset.FromKey(k), av)
		}
		if av != bv {
			return false, fmt.Sprintf("itemset %v counts differ: %d vs %d", itemset.FromKey(k), av, bv)
		}
	}
	for k, bv := range bm {
		if _, ok := am[k]; !ok {
			return false, fmt.Sprintf("itemset %v (count %d) missing from first result", itemset.FromKey(k), bv)
		}
	}
	return true, ""
}

// CountSupport scans the database and returns the exact support of the
// itemset — the ground-truth oracle for tests and for PMIHP poll replies.
func CountSupport(db *txdb.DB, x itemset.Itemset) int {
	n := 0
	db.Each(func(t *txdb.Transaction) {
		if x.SubsetOf(t.Items) {
			n++
		}
	})
	return n
}

// BruteForce enumerates every frequent itemset of the database by levelwise
// exhaustive counting (no pruning beyond Apriori closure). It is the
// reference implementation the integration tests compare the real miners
// against; use only on small databases.
func BruteForce(db *txdb.DB, opts Options) *Result {
	minCount := opts.MinCount(db.Len())
	counts := db.ItemCounts()
	var frequent []itemset.Counted
	prev := make([]itemset.Itemset, 0)
	for it, c := range counts {
		if c >= minCount {
			is := itemset.Itemset{itemset.Item(it)}
			frequent = append(frequent, itemset.Counted{Set: is, Count: c})
			prev = append(prev, is)
		}
	}
	for k := 2; len(prev) > 0 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		prevSet := itemset.SetOf(prev...)
		seen := itemset.NewSet()
		var next []itemset.Itemset
		for i := 0; i < len(prev); i++ {
			for j := i + 1; j < len(prev); j++ {
				cand, ok := itemset.Join(prev[i], prev[j])
				if !ok || seen.Has(cand) {
					continue
				}
				seen.Add(cand)
				allFreq := true
				cand.EachSubset(func(sub itemset.Itemset) bool {
					if !prevSet.Has(sub) {
						allFreq = false
						return false
					}
					return true
				})
				if !allFreq {
					continue
				}
				if c := CountSupport(db, cand); c >= minCount {
					frequent = append(frequent, itemset.Counted{Set: cand, Count: c})
					next = append(next, cand)
				}
			}
		}
		prev = next
	}
	itemset.SortCounted(frequent)
	return &Result{Frequent: frequent}
}
