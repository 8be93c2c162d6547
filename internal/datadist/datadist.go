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
	"time"

	"pmihp/internal/apriori"
	"pmihp/internal/cluster"
	"pmihp/internal/core"
	"pmihp/internal/hashtree"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/txdb"
)

// Config configures a Data Distribution run.
type Config struct {
	Nodes int
}

// Mine runs Data Distribution over the database split across cfg.Nodes
// nodes by opts.Partitioner (by default the paper's equal-count
// chronological split). Each node holds its partition plus its candidate
// share, as a CD node holds its partition plus the whole candidate set;
// mining.ErrMemoryExceeded is returned when the share outgrows
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
	res := &mining.Result{}
	var exchange []float64
	finish := func(err error) (*core.ParallelResult, error) {
		return core.ClusterResult("datadist", res, parts, metrics, fabric, exchange), err
	}

	// Observability, as Count Distribution emits it: one pass event per
	// node per counting pass. Each pass's communication is shared (from
	// pass 2 on, the database broadcast plus the closing collective), so
	// its modeled time and the collective's payload attach to node 0's
	// event only, and trace replays reconcile with ExchangeSecondsByPass. Pass 1 scans
	// every partition at its node; later passes scan the whole database
	// once for every node's share, so that scan's time attaches to node 0
	// as well. scanSec is only allocated when a recorder is live.
	var scanSec []float64
	if opts.Obs.Enabled() {
		scanSec = make([]float64, n)
	}
	timed := func(i int, scan func()) {
		if scanSec == nil {
			scan()
			return
		}
		t0 := time.Now()
		scan()
		scanSec[i] = time.Since(t0).Seconds()
	}
	emitPass := func(k, candidates int, exch float64, wireBytes int64) {
		exchange = append(exchange, exch)
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
		clear(scanSec)
	}

	// broadcastData models every node shipping its local partition to all
	// peers — the per-pass cost DD pays so nodes can count their candidate
	// shares over the full database. Each point-to-point transfer charges
	// sender and receiver; the closing barrier makes it a collective, and
	// it returns the modeled seconds from barrier to barrier.
	broadcastData := func() float64 {
		start := fabric.Barrier()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					fabric.ChargeSend(i, j, partBytes[i])
				}
			}
		}
		return fabric.Barrier() - start
	}

	// Pass 1: local item counts, all-reduced (same as CD).
	globalCounts := make([]int, db.NumItems())
	for i := 0; i < n; i++ {
		m := &metrics[i]
		timed(i, func() {
			for it, c := range apriori.CountItems(parts[i], m) {
				globalCounts[it] += c
			}
		})
		fabric.Clock(i).AdvanceWork(m.Work.Units)
	}
	wire := int64(4 * db.NumItems())
	emitPass(1, db.NumItems(), fabric.AllReduce(wire), wire)
	frequent, f1 := mining.FrequentItems(globalCounts, minCount)
	res.Frequent = mining.CountedItems(f1, globalCounts)
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
	broadcast := broadcastData()

	pairCounts := make(map[uint64]int)
	buf := make(itemset.Itemset, 0, 256)
	before := make([]int64, n)
	for i := range metrics {
		before[i] = metrics[i].Work.Units
	}
	// Physically counted once; each node is charged for scanning the full
	// database against its 1/n candidate share.
	timed(0, func() {
		db.Each(func(t *txdb.Transaction) {
			buf = buf[:0]
			for _, it := range t.Items {
				if frequent[it] {
					buf = append(buf, it)
				}
			}
			for a := 0; a < len(buf); a++ {
				for b := a + 1; b < len(buf); b++ {
					pairCounts[mining.PairKey(buf[a], buf[b])]++
				}
			}
			l := len(buf)
			for i := range metrics {
				metrics[i].Work.Charge(mining.Pass2TreeCharge(l, nPairs/n+1), 1)
				metrics[i].Work.Charge(int64(l*(l-1)/2)/int64(n)+1, mining.CostCandidateHit)
			}
		})
	})
	for i := range metrics {
		m := &metrics[i]
		m.Passes++
		m.Work.Charge(int64(totalItems), mining.CostScanItem)
		fabric.Clock(i).AdvanceWork(m.Work.Units - before[i])
	}
	prev := apriori.FrequentPairs(res, pairCounts, minCount)
	// Frequent shares are exchanged so every node can generate the next
	// candidate set.
	wire = int64(12 * (len(prev)/n + 1))
	emitPass(2, nPairs/n+1, broadcast+fabric.AllGather(wire), wire)

	// Passes k >= 3: every node runs the whole candidate step, including
	// one whose candidates all fail the subset check, and keeps its share.
	for k := 3; len(prev) >= 2 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, potential, prunedSub := mining.GenNext(prev)
		share := len(cands)/n + 1
		shareBytes := mining.CandidateBytes(k, share)
		for i := range metrics {
			m := &metrics[i]
			before := m.Work.Units
			m.Work.Charge(int64(potential), mining.CostCandidateGen)
			m.PrunedBySubset += int64(prunedSub)
			if len(cands) > 0 {
				m.AddCandidates(k, share)
				m.Work.Charge(int64(share), mining.CostTreeInsert)
				m.NoteCandidateBytes(shareBytes)
			}
			fabric.Clock(i).AdvanceWork(m.Work.Units - before)
		}
		if len(cands) == 0 {
			break
		}
		if opts.MemoryBudget > 0 && shareBytes > opts.MemoryBudget {
			return finish(mining.ErrMemoryExceeded)
		}
		broadcast := broadcastData()

		tree := hashtree.Build(k, cands)
		hits := int64(0)
		timed(0, func() {
			db.Each(func(t *txdb.Transaction) {
				hits += int64(tree.CountTx(t.Items))
			})
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
		prev = apriori.FrequentCandidates(res, tree, minCount)
		wire := int64((4*k + 8) * (len(prev)/n + 1))
		emitPass(k, share, broadcast+fabric.AllGather(wire), wire)
	}
	return finish(nil)
}
