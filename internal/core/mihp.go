package core

import (
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// MineMIHP runs the sequential Multipass with Inverted Hashing and Pruning
// algorithm (section 2.3) over the database and returns every frequent
// itemset with its exact support. The multipass partitioning bounds the
// candidate memory by partition, so MIHP does not take a memory budget; its
// observed peak is reported in the metrics instead.
func MineMIHP(db *txdb.DB, opts mining.Options) (*mining.Result, error) {
	opts = opts.WithDefaults()
	minCount := opts.MinCount(db.Len())
	res := &mining.Result{Metrics: mining.NewMetrics("mihp")}
	m := &res.Metrics

	// Pass 1 (pseudo-code lines 5-12): count items and build the THTs.
	local, counts := tht.BuildLocalShards(db, opts.THTEntries, opts.Workers())
	m.Passes++
	m.AddCandidates(1, db.NumItems())
	totalItems := db.TotalItems()
	// Each occurrence is read and hashed into the item's THT.
	m.Work.Charge(int64(totalItems), mining.CostScanItem+mining.CostTHTSlot)

	var f1 []itemset.Item
	freq := make(map[itemset.Item]bool)
	for it, c := range counts {
		if c >= minCount {
			f1 = append(f1, itemset.Item(it))
			freq[itemset.Item(it)] = true
			res.Frequent = append(res.Frequent, itemset.Counted{
				Set: itemset.Itemset{itemset.Item(it)}, Count: c,
			})
		}
	}
	local.Retain(func(it itemset.Item) bool { return freq[it] })
	m.NoteCandidateBytes(int64(local.Bytes()))

	if opts.MaxK == 1 || len(f1) < 2 {
		itemset.SortCounted(res.Frequent)
		return res, nil
	}

	lm := &localMiner{
		db:         db,
		opts:       opts,
		minLocal:   minCount,
		minPrune:   minCount,
		global:     tht.NewGlobal([]*tht.Local{local}),
		self:       0,
		freqItems:  f1,
		partitions: Partition(f1, opts.PartitionSize),
		metrics:    m,
		emit: func(set itemset.Itemset, count int) {
			res.Frequent = append(res.Frequent, itemset.Counted{Set: set, Count: count})
		},
	}
	lm.run()

	itemset.SortCounted(res.Frequent)
	return res, nil
}
