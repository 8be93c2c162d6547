package core

import (
	"slices"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// PollCounter answers peers' support-count polls from an inverted
// posting file over the node's original (untrimmed) local database — the
// node protocol's poll service (RunNode). The posting file
// is built lazily at the first count, so nodes that are never polled
// pay nothing. Not safe for concurrent use; the transport serializes
// poll service.
type PollCounter struct {
	db        *txdb.DB
	workers   int
	threshold float64
	inv       *postings
}

// NewPollCounter returns a counter over db that builds its posting file
// serially and counts poll batches on up to workers goroutines.
// denseThreshold overrides the posting-density cut (see denseCutoff); 0
// keeps the default layout. The layout changes wall time and held bytes
// only, never a count or a charge.
func NewPollCounter(db *txdb.DB, workers int, denseThreshold float64) *PollCounter {
	return &PollCounter{db: db, workers: workers, threshold: denseThreshold}
}

// Count returns the exact local support of the itemset, charging the
// intersection work (and the lazy build) to m.
func (p *PollCounter) Count(set itemset.Itemset, m *mining.Metrics) int {
	p.ensure(m)
	return p.inv.count(set, m)
}

// CountBatch counts a whole poll batch — in the poll reply's wire type —
// sharding the itemsets across the counter's workers with per-shard
// scratch. Per-shard merge charges fold into m in shard order, so results
// and simulated charges are identical to len(sets) Count calls.
func (p *PollCounter) CountBatch(sets []itemset.Itemset, m *mining.Metrics) []int32 {
	p.ensure(m)
	return countBatchSharded(p.inv, sets, p.workers, m)
}

// countBatchSharded intersects a batch of itemsets against the inverted
// file on the chunk-queue scheduler, each worker with private scratch.
// Each itemset's count and merge charge are independent of the others and
// land in its own slot, and per-worker charge tallies accumulate across
// claimed chunks and merge as sums, so the serial charges are reproduced
// exactly at any worker count.
func countBatchSharded(inv *postings, sets []itemset.Itemset, workers int, m *mining.Metrics) []int32 {
	counts := make([]int32, len(sets))
	nShards := mining.NumShards(len(sets), workers)
	inv.ensureScratch(nShards)
	shardOps := make([]int64, nShards)
	mining.RunShards(len(sets), workers, func(s, lo, hi int) {
		sc := inv.scratchFor(s)
		var ops int64
		for i := lo; i < hi; i++ {
			n, o := inv.countScratch(sets[i], sc)
			counts[i] = int32(n)
			ops += o
		}
		shardOps[s] += ops
	})
	for _, ops := range shardOps {
		m.Work.Charge(ops, 1)
	}
	return counts
}

func (p *PollCounter) ensure(m *mining.Metrics) {
	if p.inv == nil {
		p.inv = buildPostings(p.db, m, p.threshold)
		m.NoteHeldBytes(p.inv.MemBytes())
	}
}

// FrequentItems is mining.FrequentItems plus mining.CountedItems, kept
// for perfbench's pass-1 replay; the miners call those two directly.
func FrequentItems(globalCounts []int, globalMin int) (freq []bool, f1 []itemset.Item, f1Counted []itemset.Counted) {
	freq, f1 = mining.FrequentItems(globalCounts, globalMin)
	return freq, f1, mining.CountedItems(f1, globalCounts)
}

// MergeFound combines the nodes' globally frequent itemsets with the
// frequent 1-itemsets into the final sorted result list. Several nodes
// may report the same itemset (with equal exact counts, or differing
// lower bounds in approx mode); entries are sorted by set and the best
// count per run of equals is kept. all is sorted in place.
func MergeFound(f1Counted []itemset.Counted, all []itemset.Counted) []itemset.Counted {
	slices.SortFunc(all, func(a, b itemset.Counted) int { return itemset.Compare(a.Set, b.Set) })
	frequent := append([]itemset.Counted(nil), f1Counted...)
	for i := 0; i < len(all); {
		best := all[i]
		j := i + 1
		for ; j < len(all) && itemset.Compare(all[j].Set, best.Set) == 0; j++ {
			if all[j].Count > best.Count {
				best.Count = all[j].Count
			}
		}
		frequent = append(frequent, best)
		i = j
	}
	itemset.SortCounted(frequent)
	return frequent
}
