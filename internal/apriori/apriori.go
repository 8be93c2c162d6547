// Package apriori implements the classic sequential Apriori algorithm
// (Agrawal & Srikant, VLDB 1994) — the baseline the paper measures MIHP
// against in Figure 4 and the foundation of the Count Distribution parallel
// baseline.
//
// Candidate 2-itemsets are conceptually the full self-join of the frequent
// items; with text databases that set is enormous (the paper reports ~82
// million candidate 2-itemsets on the 8-day WSJ sample), which is exactly
// why Apriori exhausts memory at low support levels. We account candidate
// memory and generation work for the full C2 — reproducing the paper's OOM
// behaviour under Options.MemoryBudget — while physically counting only the
// pairs that occur in the database (pairs occurring zero times cannot become
// frequent, so the mining output is identical).
package apriori

import (
	"pmihp/internal/hashtree"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Mine runs Apriori over the database and returns every frequent itemset.
// It returns mining.ErrMemoryExceeded when the candidate set outgrows
// opts.MemoryBudget (partial metrics are still returned in the result).
func Mine(db *txdb.DB, opts mining.Options) (*mining.Result, error) {
	opts = opts.WithDefaults()
	minCount := opts.MinCount(db.Len())
	res := &mining.Result{Metrics: mining.NewMetrics("apriori")}
	m := &res.Metrics

	counts := CountItems(db, m)
	frequent, f1 := mining.FrequentItems(counts, minCount)
	res.Frequent = mining.CountedItems(f1, counts)
	if opts.MaxK == 1 || len(f1) < 2 {
		itemset.SortCounted(res.Frequent)
		return res, nil
	}

	// Pass 2: conceptually all pairs of frequent items.
	nPairs := len(f1) * (len(f1) - 1) / 2
	m.AddCandidates(2, nPairs)
	m.Work.Charge(int64(nPairs), mining.CostCandidateGen)
	m.NoteCandidateBytes(mining.CandidateBytes(2, nPairs))
	if opts.MemoryBudget > 0 && m.PeakCandidateBytes > opts.MemoryBudget {
		return res, mining.ErrMemoryExceeded
	}
	pairCounts := make(map[uint64]int)
	CountPairs(db, frequent, nPairs, pairCounts, m)
	prev := FrequentPairs(res, pairCounts, minCount)

	// Passes k >= 3: prefix join + subset pruning + hash-tree counting.
	for k := 3; len(prev) >= 2 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, potential, prunedSub := mining.GenNext(prev)
		m.Work.Charge(int64(potential), mining.CostCandidateGen)
		m.PrunedBySubset += int64(prunedSub)
		if len(cands) == 0 {
			break
		}
		m.AddCandidates(k, len(cands))
		m.NoteCandidateBytes(mining.CandidateBytes(k, len(cands)))
		if opts.MemoryBudget > 0 && m.PeakCandidateBytes > opts.MemoryBudget {
			itemset.SortCounted(res.Frequent)
			return res, mining.ErrMemoryExceeded
		}

		tree := hashtree.Build(k, cands)
		m.Work.Charge(int64(len(cands)), mining.CostTreeInsert)
		CountTree(db, tree, m)
		prev = FrequentCandidates(res, tree, minCount)
	}

	m.NoteHeldBytes(db.MemBytes() + m.PeakCandidateBytes)
	itemset.SortCounted(res.Frequent)
	return res, nil
}

// The counting passes below are Apriori's, over one database. Count
// Distribution runs each of them at every node over its own partition.

// CountItems is pass 1 over db: it returns each item's support and
// charges m for reading every occurrence, one candidate per item.
func CountItems(db *txdb.DB, m *mining.Metrics) []int {
	m.Passes++
	m.AddCandidates(1, db.NumItems())
	m.Work.Charge(int64(db.TotalItems()), mining.CostScanItem)
	return db.ItemCounts()
}

// CountPairs is pass 2 over db: it adds every pair of frequent items of
// each transaction into counts under its mining.PairKey, and charges m
// for the scan, the walk of a hash tree over the nPairs conceptual
// candidates, and the candidate hits.
func CountPairs(db *txdb.DB, frequent []bool, nPairs int, counts map[uint64]int, m *mining.Metrics) {
	m.Passes++
	m.Work.Charge(int64(db.TotalItems()), mining.CostScanItem)
	buf := make(itemset.Itemset, 0, 256)
	db.Each(func(t *txdb.Transaction) {
		buf = buf[:0]
		for _, it := range t.Items {
			if frequent[it] {
				buf = append(buf, it)
			}
		}
		for i := 0; i < len(buf); i++ {
			for j := i + 1; j < len(buf); j++ {
				counts[mining.PairKey(buf[i], buf[j])]++
			}
		}
		n := len(buf)
		m.Work.Charge(mining.Pass2TreeCharge(n, nPairs), 1)
		m.Work.Charge(int64(n*(n-1)/2), mining.CostCandidateHit)
	})
}

// CountTree is pass k >= 3 over db: it adds the candidates of tree that
// each transaction contains into the tree's counts, and charges m for the
// scan, the candidate hits and this scan's walk of the tree.
func CountTree(db *txdb.DB, tree *hashtree.Tree, m *mining.Metrics) {
	m.Passes++
	m.Work.Charge(int64(db.TotalItems()), mining.CostScanItem)
	walked := tree.WalkCost()
	hits := 0
	db.Each(func(t *txdb.Transaction) { hits += tree.CountTx(t.Items) })
	m.Work.Charge(int64(hits), mining.CostCandidateHit)
	m.Work.Charge(tree.WalkCost()-walked, 1)
}

// FrequentPairs appends the pairs of counts that reach minCount to res
// and returns them in lexicographic order, the next candidate step's
// input.
func FrequentPairs(res *mining.Result, counts map[uint64]int, minCount int) []itemset.Itemset {
	var prev []itemset.Itemset
	for key, c := range counts {
		if c >= minCount {
			a, b := mining.PairOf(key)
			pair := itemset.Itemset{a, b}
			res.Frequent = append(res.Frequent, itemset.Counted{Set: pair, Count: c})
			prev = append(prev, pair)
		}
	}
	itemset.Sort(prev)
	return prev
}

// FrequentCandidates is FrequentPairs for the candidates counted in tree.
func FrequentCandidates(res *mining.Result, tree *hashtree.Tree, minCount int) []itemset.Itemset {
	var prev []itemset.Itemset
	for i := 0; i < tree.Len(); i++ {
		if c := tree.Count(i); c >= minCount {
			res.Frequent = append(res.Frequent, itemset.Counted{Set: tree.Candidate(i), Count: c})
			prev = append(prev, tree.Candidate(i))
		}
	}
	itemset.Sort(prev)
	return prev
}
