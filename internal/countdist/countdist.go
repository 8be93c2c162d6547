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

	"pmihp/internal/apriori"
	"pmihp/internal/cluster"
	"pmihp/internal/core"
	"pmihp/internal/hashtree"
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
	res := &mining.Result{}
	var exchange []float64
	finish := func(err error) (*core.ParallelResult, error) {
		return core.ClusterResult("countdist", res, parts, metrics, fabric, exchange), err
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
	// count runs one of Apriori's counting passes at every node over its
	// own partition, advancing the node's clock by the work it charged,
	// and then all-reduces the count vector, 4 bytes per candidate.
	count := func(k, candidates int, pass func(part *txdb.DB, m *mining.Metrics)) {
		for i := 0; i < n; i++ {
			m := &metrics[i]
			before := m.Work.Units
			var t0 time.Time
			if scanSec != nil {
				t0 = time.Now()
			}
			pass(parts[i], m)
			if scanSec != nil {
				scanSec[i] = time.Since(t0).Seconds()
			}
			fabric.Clock(i).AdvanceWork(m.Work.Units - before)
		}
		wire := int64(4 * candidates)
		exchange = append(exchange, fabric.AllReduce(wire))
		emitPass(k, candidates, exchange[len(exchange)-1], wire)
	}

	// Pass 1: local item counts, then all-reduce.
	globalCounts := make([]int, db.NumItems())
	count(1, db.NumItems(), func(part *txdb.DB, m *mining.Metrics) {
		for it, c := range apriori.CountItems(part, m) {
			globalCounts[it] += c
		}
	})
	frequent, f1 := mining.FrequentItems(globalCounts, minCount)
	res.Frequent = mining.CountedItems(f1, globalCounts)
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
	count(2, nPairs, func(part *txdb.DB, m *mining.Metrics) {
		apriori.CountPairs(part, frequent, nPairs, pairCounts, m)
	})
	prev := apriori.FrequentPairs(res, pairCounts, minCount)

	// Passes k >= 3: every node runs the same candidate step, including
	// one whose candidates all fail the subset check, and counts one
	// shared hash tree over its partition.
	for k := 3; len(prev) >= 2 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, potential, prunedSub := mining.GenNext(prev)
		candBytes := mining.CandidateBytes(k, len(cands))
		for i := range metrics {
			m := &metrics[i]
			before := m.Work.Units
			m.Work.Charge(int64(potential), mining.CostCandidateGen)
			m.PrunedBySubset += int64(prunedSub)
			if len(cands) > 0 {
				m.AddCandidates(k, len(cands))
				m.Work.Charge(int64(len(cands)), mining.CostTreeInsert)
				m.NoteCandidateBytes(candBytes)
			}
			fabric.Clock(i).AdvanceWork(m.Work.Units - before)
		}
		if len(cands) == 0 {
			break
		}
		if opts.MemoryBudget > 0 && candBytes > opts.MemoryBudget {
			return finish(mining.ErrMemoryExceeded)
		}
		tree := hashtree.Build(k, cands)
		count(k, len(cands), func(part *txdb.DB, m *mining.Metrics) {
			apriori.CountTree(part, tree, m)
		})
		prev = apriori.FrequentCandidates(res, tree, minCount)
	}
	return finish(nil)
}
