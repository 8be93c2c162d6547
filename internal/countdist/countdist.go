// Package countdist implements the Count Distribution algorithm (Agrawal &
// Shafer, TKDE 1996) — the parallel Apriori baseline the paper compares
// PMIHP against in Figure 5.
//
// Count Distribution partitions the database across the nodes; in every
// pass all nodes generate the *same* candidate set, count it against their
// local partitions, and all-reduce the count vector so each node can derive
// the identical frequent set for the next pass. The per-pass synchronization
// and the fully replicated candidate sets are exactly the overheads PMIHP
// avoids; both are charged faithfully here (candidate generation work and
// candidate memory are paid at every node).
package countdist

import (
	"fmt"
	"time"

	"pmihp/internal/cluster"
	"pmihp/internal/core"
	"pmihp/internal/hashtree"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/txdb"
)

// Config configures a Count Distribution run.
type Config struct {
	Nodes int
}

// Mine runs Count Distribution over the database split across cfg.Nodes
// nodes by opts.Partitioner (by default the paper's equal-count
// chronological split). It returns mining.ErrMemoryExceeded when the
// replicated candidate set outgrows opts.MemoryBudget at any node, which is
// the regime where the paper could not run CD below 2% support.
func Mine(db *txdb.DB, cfg Config, opts mining.Options) (*core.ParallelResult, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("countdist: need at least one node, got %d", cfg.Nodes)
	}
	opts = opts.WithDefaults()
	n := cfg.Nodes
	minCount := opts.MinCount(db.Len())
	parts := opts.Partitioner.Split(db, n)
	fabric := cluster.New(n, cluster.FastEthernet)

	metrics := make([]mining.Metrics, n)
	for i := range metrics {
		metrics[i] = mining.NewMetrics("cd-node")
	}

	// Observability: one pass event per node per counting pass. The
	// all-reduce is one shared collective, so its modeled time and payload
	// attach to node 0's event only — trace replays then reconcile with
	// ExchangeSecondsByPass instead of multiplying it by n. scanSec is
	// only allocated when a recorder is live.
	var scanSec []float64
	if opts.Obs.Enabled() {
		scanSec = make([]float64, n)
	}
	scanStart := func(i int) time.Time {
		if scanSec != nil {
			return time.Now()
		}
		return time.Time{}
	}
	scanEnd := func(i int, t0 time.Time) {
		if scanSec != nil {
			scanSec[i] = time.Since(t0).Seconds()
		}
	}
	emitPass := func(k, candidates int, exch float64, wireBytes int64) {
		r := opts.Obs
		if !r.Enabled() {
			return
		}
		for i := 0; i < n; i++ {
			ev := obs.PassEvent{
				Node: i, Partition: -1, K: k,
				Candidates:  candidates,
				ScanSeconds: scanSec[i],
			}
			if i == 0 {
				ev.ExchangeSeconds = exch
				ev.WireBytes = wireBytes
			}
			r.Pass(ev)
		}
	}
	res := &mining.Result{Metrics: mining.NewMetrics("countdist")}
	out := &core.ParallelResult{Result: res}
	finish := func(err error) (*core.ParallelResult, error) {
		itemset.SortCounted(res.Frequent)
		out.Nodes = make([]core.NodeReport, n)
		for i := range metrics {
			metrics[i].NoteHeldBytes(parts[i].MemBytes() + metrics[i].PeakCandidateBytes)
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
		res.Metrics.Algorithm = "countdist"
		out.TotalSeconds = fabric.MaxClock()
		return out, err
	}

	// Pass 1: local item counts, then all-reduce.
	globalCounts := make([]int, db.NumItems())
	for i := 0; i < n; i++ {
		m := &metrics[i]
		m.Passes++
		items := 0
		t0 := scanStart(i)
		parts[i].Each(func(t *txdb.Transaction) {
			items += len(t.Items)
			for _, it := range t.Items {
				globalCounts[it]++
			}
		})
		scanEnd(i, t0)
		m.Work.Charge(int64(items), mining.CostScanItem)
		fabric.Clock(i).AdvanceWork(m.Work.Units)
		m.AddCandidates(1, db.NumItems())
	}
	out.ExchangeSecondsByPass = append(out.ExchangeSecondsByPass, fabric.AllReduce(int64(4*db.NumItems())))
	emitPass(1, db.NumItems(), out.ExchangeSecondsByPass[0], int64(4*db.NumItems()))

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

	// Pass 2: the replicated candidate set is conceptually all pairs of
	// frequent items at every node (see internal/apriori for why counting
	// is physically sparse).
	nPairs := len(f1) * (len(f1) - 1) / 2
	candBytes := mining.CandidateBytes(2, nPairs)
	for i := range metrics {
		m := &metrics[i]
		m.AddCandidates(2, nPairs)
		m.Work.Charge(int64(nPairs), mining.CostCandidateGen)
		m.NoteCandidateBytes(candBytes)
		fabric.Clock(i).AdvanceWork(int64(nPairs) * mining.CostCandidateGen)
	}
	if opts.MemoryBudget > 0 && candBytes > opts.MemoryBudget {
		return finish(mining.ErrMemoryExceeded)
	}

	pairCounts := make(map[uint64]int)
	distinctPairs := make(map[uint64]struct{})
	for i := 0; i < n; i++ {
		m := &metrics[i]
		m.Passes++
		before := m.Work.Units
		t0 := scanStart(i)
		buf := make(itemset.Itemset, 0, 256)
		parts[i].Each(func(t *txdb.Transaction) {
			m.Work.Charge(int64(len(t.Items)), mining.CostScanItem)
			buf = buf[:0]
			for _, it := range t.Items {
				if frequent[it] {
					buf = append(buf, it)
				}
			}
			for a := 0; a < len(buf); a++ {
				for b := a + 1; b < len(buf); b++ {
					key := uint64(buf[a])<<32 | uint64(buf[b])
					pairCounts[key]++
					distinctPairs[key] = struct{}{}
				}
			}
			l := len(buf)
			m.Work.Charge(mining.Pass2TreeCharge(l, nPairs), 1)
			m.Work.Charge(int64(l*(l-1)/2), mining.CostCandidateHit)
		})
		scanEnd(i, t0)
		fabric.Clock(i).AdvanceWork(m.Work.Units - before)
	}
	// The count vector over the replicated candidate set is all-reduced.
	out.ExchangeSecondsByPass = append(out.ExchangeSecondsByPass, fabric.AllReduce(int64(4*nPairs)))
	emitPass(2, nPairs, out.ExchangeSecondsByPass[1], int64(4*nPairs))

	var prev []itemset.Itemset
	for key, c := range pairCounts {
		if c >= minCount {
			pair := itemset.Itemset{itemset.Item(key >> 32), itemset.Item(key & 0xffffffff)}
			res.Frequent = append(res.Frequent, itemset.Counted{Set: pair, Count: c})
			prev = append(prev, pair)
		}
	}
	itemset.Sort(prev)

	// Passes k >= 3.
	for k := 3; len(prev) >= 2 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, potential, prunedSub := genNext(k, prev)
		if len(cands) == 0 {
			break
		}
		candBytes := mining.CandidateBytes(k, len(cands))
		for i := range metrics {
			m := &metrics[i]
			m.AddCandidates(k, len(cands))
			m.Work.Charge(int64(potential), mining.CostCandidateGen)
			m.Work.Charge(int64(len(cands)), mining.CostTreeInsert)
			m.PrunedBySubset += int64(prunedSub)
			m.NoteCandidateBytes(candBytes)
			fabric.Clock(i).AdvanceWork(int64(potential)*mining.CostCandidateGen + int64(len(cands))*mining.CostTreeInsert)
		}
		if opts.MemoryBudget > 0 && candBytes > opts.MemoryBudget {
			return finish(mining.ErrMemoryExceeded)
		}

		total := make([]int, len(cands))
		for i := 0; i < n; i++ {
			m := &metrics[i]
			m.Passes++
			before := m.Work.Units
			t0 := scanStart(i)
			tree := hashtree.Build(k, cands)
			parts[i].Each(func(t *txdb.Transaction) {
				m.Work.Charge(int64(len(t.Items)), mining.CostScanItem)
				hits := tree.CountTx(t.Items)
				m.Work.Charge(int64(hits), mining.CostCandidateHit)
			})
			scanEnd(i, t0)
			m.Work.Charge(tree.WalkCost(), 1)
			for c, v := range tree.Counts() {
				total[c] += v
			}
			fabric.Clock(i).AdvanceWork(m.Work.Units - before)
		}
		out.ExchangeSecondsByPass = append(out.ExchangeSecondsByPass, fabric.AllReduce(int64(4*len(cands))))
		emitPass(k, len(cands), out.ExchangeSecondsByPass[len(out.ExchangeSecondsByPass)-1], int64(4*len(cands)))

		prev = prev[:0]
		for i, c := range total {
			if c >= minCount {
				res.Frequent = append(res.Frequent, itemset.Counted{Set: cands[i], Count: c})
				prev = append(prev, cands[i])
			}
		}
		itemset.Sort(prev)
	}
	return finish(nil)
}

// genNext generates the candidate k-itemsets from the frequent
// (k-1)-itemsets, using the packed-pair fast path for k=3.
func genNext(k int, prev []itemset.Itemset) (cands []itemset.Itemset, potential, pruned int) {
	if k == 3 {
		return mining.Gen3(prev, mining.PairTableOf(prev))
	}
	return mining.AprioriGen(prev, itemset.SetOf(prev...))
}
