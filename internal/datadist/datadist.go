// Package datadist implements the Data Distribution algorithm — the second
// parallel Apriori of Agrawal & Shafer (TKDE 1996), the paper's reference
// [2] alongside Count Distribution. Where CD replicates the entire
// candidate set at every node (memory-bound), Data Distribution partitions
// the candidates round-robin across nodes, so each node holds only |C_k|/N
// of them — but must then count its share against the *entire* database,
// which every node broadcasts its local partition to make possible.
//
// DD therefore trades CD's memory wall for a communication wall: it
// survives lower minimum support levels than CD before exhausting memory,
// but ships the whole database around the cluster every pass. On text
// databases both walls stand well before PMIHP's (the A11 ablation), which
// is why the paper's authors compare against CD, the stronger baseline.
package datadist

import (
	"fmt"

	"pmihp/internal/cluster"
	"pmihp/internal/core"
	"pmihp/internal/hashtree"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Config configures a Data Distribution run.
type Config struct {
	Nodes int
}

// Mine runs Data Distribution over the database split across cfg.Nodes
// nodes by opts.Partitioner (by default the paper's equal-count
// chronological split). Memory accounting covers each node's candidate
// share; mining.ErrMemoryExceeded is returned when that share outgrows
// opts.MemoryBudget.
func Mine(db *txdb.DB, cfg Config, opts mining.Options) (*core.ParallelResult, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("datadist: need at least one node, got %d", cfg.Nodes)
	}
	opts = opts.WithDefaults()
	n := cfg.Nodes
	minCount := opts.MinCount(db.Len())
	parts := opts.Partitioner.Split(db, n)
	fabric := cluster.New(n, cluster.FastEthernet)

	// Per-node database sizes in bytes, for the data broadcast each pass.
	// TotalItems is an O(1) CSR offset read — no transaction scan needed.
	partBytes := make([]int64, n)
	for i, p := range parts {
		partBytes[i] = int64(4*p.TotalItems() + 8*p.Len())
	}
	totalItems := db.TotalItems()

	metrics := make([]mining.Metrics, n)
	for i := range metrics {
		metrics[i] = mining.NewMetrics("dd-node")
	}
	res := &mining.Result{Metrics: mining.NewMetrics("datadist")}
	out := &core.ParallelResult{Result: res}
	finish := func(err error) (*core.ParallelResult, error) {
		itemset.SortCounted(res.Frequent)
		out.Nodes = make([]core.NodeReport, n)
		for i := range metrics {
			msgs, bytes := fabric.Stats(i).Snapshot()
			metrics[i].MessagesSent = msgs
			metrics[i].BytesSent = bytes
			out.Nodes[i] = core.NodeReport{
				Node:    i,
				Docs:    parts[i].Len(),
				Metrics: metrics[i],
				Seconds: fabric.Clock(i).Now(),
			}
			res.Metrics.Merge(&metrics[i])
		}
		res.Metrics.Algorithm = "datadist"
		out.TotalSeconds = fabric.MaxClock()
		return out, err
	}

	// broadcastData models every node shipping its local partition to all
	// peers — the per-pass cost DD pays so nodes can count their candidate
	// shares over the full database. Each point-to-point transfer charges
	// sender and receiver; the closing barrier makes it a collective.
	broadcastData := func() {
		fabric.Barrier()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					fabric.ChargeSend(i, j, partBytes[i])
				}
			}
		}
		fabric.Barrier()
	}

	// Pass 1: local item counts, all-reduced (same as CD).
	globalCounts := make([]int, db.NumItems())
	for i := 0; i < n; i++ {
		m := &metrics[i]
		m.Passes++
		items := 0
		parts[i].Each(func(t *txdb.Transaction) {
			items += len(t.Items)
			for _, it := range t.Items {
				globalCounts[it]++
			}
		})
		m.Work.Charge(int64(items), mining.CostScanItem)
		fabric.Clock(i).AdvanceWork(m.Work.Units)
		m.AddCandidates(1, db.NumItems())
	}
	fabric.AllReduce(int64(4 * db.NumItems()))

	frequent := make([]bool, db.NumItems())
	var f1 []itemset.Item
	for it, c := range globalCounts {
		if c >= minCount {
			frequent[it] = true
			f1 = append(f1, itemset.Item(it))
			res.Frequent = append(res.Frequent, itemset.Counted{
				Set: itemset.Itemset{itemset.Item(it)}, Count: c,
			})
		}
	}
	if opts.MaxK == 1 || len(f1) < 2 {
		return finish(nil)
	}

	// Pass 2: each node owns every n-th conceptual candidate pair and
	// counts it over the full (broadcast) database.
	nPairs := len(f1) * (len(f1) - 1) / 2
	shareBytes := mining.CandidateBytes(2, nPairs/n+1)
	for i := range metrics {
		m := &metrics[i]
		m.AddCandidates(2, nPairs/n+1)
		// Generation enumerates the full join at every node (ownership is
		// decided per candidate), like CD.
		m.Work.Charge(int64(nPairs), mining.CostCandidateGen)
		m.NoteCandidateBytes(shareBytes)
		fabric.Clock(i).AdvanceWork(int64(nPairs) * mining.CostCandidateGen)
	}
	if opts.MemoryBudget > 0 && shareBytes > opts.MemoryBudget {
		return finish(mining.ErrMemoryExceeded)
	}
	broadcastData()

	pairCounts := make(map[uint64]int)
	buf := make(itemset.Itemset, 0, 256)
	before := make([]int64, n)
	for i := range metrics {
		before[i] = metrics[i].Work.Units
	}
	// Physically counted once; each node is charged for scanning the full
	// database against its 1/n candidate share.
	db.Each(func(t *txdb.Transaction) {
		buf = buf[:0]
		for _, it := range t.Items {
			if frequent[it] {
				buf = append(buf, it)
			}
		}
		for a := 0; a < len(buf); a++ {
			for b := a + 1; b < len(buf); b++ {
				pairCounts[uint64(buf[a])<<32|uint64(buf[b])]++
			}
		}
		l := len(buf)
		for i := range metrics {
			metrics[i].Work.Charge(mining.Pass2TreeCharge(l, nPairs/n+1), 1)
			metrics[i].Work.Charge(int64(l*(l-1)/2)/int64(n)+1, mining.CostCandidateHit)
		}
	})
	for i := range metrics {
		m := &metrics[i]
		m.Passes++
		m.Work.Charge(int64(totalItems), mining.CostScanItem)
		fabric.Clock(i).AdvanceWork(m.Work.Units - before[i])
	}

	var prev []itemset.Itemset
	for key, c := range pairCounts {
		if c >= minCount {
			pair := itemset.Itemset{itemset.Item(key >> 32), itemset.Item(key & 0xffffffff)}
			res.Frequent = append(res.Frequent, itemset.Counted{Set: pair, Count: c})
			prev = append(prev, pair)
		}
	}
	itemset.Sort(prev)
	// Frequent shares are exchanged so every node can generate the next
	// candidate set.
	fabric.AllGather(int64(12 * (len(prev)/n + 1)))

	// Passes k >= 3.
	for k := 3; len(prev) >= 2 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, potential, prunedSub := genNext(k, prev)
		if len(cands) == 0 {
			break
		}
		share := len(cands)/n + 1
		shareBytes := mining.CandidateBytes(k, share)
		for i := range metrics {
			m := &metrics[i]
			m.AddCandidates(k, share)
			m.Work.Charge(int64(potential), mining.CostCandidateGen)
			m.Work.Charge(int64(share), mining.CostTreeInsert)
			m.PrunedBySubset += int64(prunedSub)
			m.NoteCandidateBytes(shareBytes)
			fabric.Clock(i).AdvanceWork(int64(potential)*mining.CostCandidateGen + int64(share)*mining.CostTreeInsert)
		}
		if opts.MemoryBudget > 0 && shareBytes > opts.MemoryBudget {
			return finish(mining.ErrMemoryExceeded)
		}
		broadcastData()

		tree := hashtree.Build(k, cands)
		hits := int64(0)
		db.Each(func(t *txdb.Transaction) {
			hits += int64(tree.CountTx(t.Items))
		})
		for i := range metrics {
			m := &metrics[i]
			m.Passes++
			before := m.Work.Units
			m.Work.Charge(int64(totalItems), mining.CostScanItem)
			m.Work.Charge(tree.WalkCost()/int64(n)+1, 1)
			m.Work.Charge(hits/int64(n)+1, mining.CostCandidateHit)
			fabric.Clock(i).AdvanceWork(m.Work.Units - before)
		}

		prev = prev[:0]
		for i := 0; i < tree.Len(); i++ {
			if c := tree.Count(i); c >= minCount {
				res.Frequent = append(res.Frequent, itemset.Counted{Set: tree.Candidate(i), Count: c})
				prev = append(prev, tree.Candidate(i))
			}
		}
		itemset.Sort(prev)
		fabric.AllGather(int64((4*k + 8) * (len(prev)/n + 1)))
	}
	return finish(nil)
}

// genNext mirrors the candidate generation of the other Apriori-family
// miners (packed-pair fast path for k=3).
func genNext(k int, prev []itemset.Itemset) (cands []itemset.Itemset, potential, pruned int) {
	if k == 3 {
		return mining.Gen3(prev, mining.PairTableOf(prev))
	}
	return mining.AprioriGen(prev, itemset.SetOf(prev...))
}
