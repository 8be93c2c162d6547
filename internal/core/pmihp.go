package core

import (
	"fmt"
	"sync"

	"pmihp/internal/cluster"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// PollMode selects when PMIHP resolves global candidate itemsets.
type PollMode int

const (
	// Interleaved is the paper's normal operation: a node polls its peers
	// after any counting pass that leaves GlobalCandidateBatch candidates
	// queued, overlapping global support counting with local mining.
	Interleaved PollMode = iota
	// Deferred postpones all polling until every node has finished local
	// mining, synchronizing first — the reconfiguration the paper uses to
	// *measure* the global support counting time (Figure 8).
	Deferred
)

// PMIHPConfig configures a parallel run.
type PMIHPConfig struct {
	// Nodes is the number of simulated processing nodes (the paper uses
	// 1, 2, 4 and 8 on a logical binary n-cube).
	Nodes int

	// Mode selects interleaved (default) or deferred global counting.
	Mode PollMode

	// ApproxDirectCounts reproduces the paper's reporting of itemsets whose
	// local count already reaches the global minimum: they are recorded
	// immediately with the local count as a lower bound and never polled.
	// When false (the default), such itemsets are polled too so every
	// reported support is exact — required for rule confidences and for the
	// cross-miner equivalence tests.
	ApproxDirectCounts bool

	// Split selects the database-to-node assignment; nil selects the
	// paper's chronological split (txdb.SplitChronological). The A6
	// ablation passes txdb.SplitRoundRobin / txdb.SplitSkewAware here.
	Split func(db *txdb.DB, n int) []*txdb.DB

	// Tally, when non-nil, records which nodes counted each candidate
	// 2-itemset (local mining and poll service), enabling the "candidates
	// counted at more than one node" statistic of the paper's 8-week
	// experiment. Costs memory proportional to the distinct candidate
	// count; leave nil except for that experiment.
	Tally *PairTally
}

// NodeReport is the per-node outcome of a parallel run.
type NodeReport struct {
	Node     int
	Docs     int // local database size
	LocalMin int // local minimum support count

	// Metrics merges the node's mining and poll-service accounting.
	Metrics mining.Metrics

	// Seconds is the node's final simulated clock.
	Seconds float64

	// PollServeUnits is the work spent answering peers' poll requests,
	// included in Metrics.Work.
	PollServeUnits int64
}

// ParallelResult is the outcome of a PMIHP (or Count Distribution) run.
type ParallelResult struct {
	// Result holds the merged globally frequent itemsets; its metrics are
	// the node aggregates.
	Result *mining.Result

	Nodes []NodeReport

	// TotalSeconds is the simulated total execution time (max node clock).
	TotalSeconds float64

	// GlobalCountSeconds is the measured global support counting phase; it
	// is only meaningful in Deferred mode (Figure 8's methodology).
	GlobalCountSeconds float64

	// THTExchangeSeconds and FinalExchangeSeconds are the collective
	// communication times of the table exchange and the final frequent-list
	// exchange.
	THTExchangeSeconds   float64
	FinalExchangeSeconds float64

	// ExchangeSecondsByPass records the modeled collective time of each
	// per-pass count exchange, in pass order. Count Distribution fills it
	// (one all-reduce per pass); PMIHP has no per-pass collectives. The
	// multi-process runtime reports measured wall-clock per exchange phase
	// alongside (mining.Metrics.WireSeconds), so model and measurement can
	// be validated against each other.
	ExchangeSecondsByPass []float64
}

// AvgNodeSeconds returns the mean per-node simulated execution time
// (Figure 9's quantity).
func (r *ParallelResult) AvgNodeSeconds() float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range r.Nodes {
		sum += n.Seconds
	}
	return sum / float64(len(r.Nodes))
}

// AvgCandidates returns the mean number of candidate k-itemsets counted per
// node (Figures 10 and 11).
func (r *ParallelResult) AvgCandidates(k int) float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	sum := 0
	for _, n := range r.Nodes {
		sum += n.Metrics.CandidatesByK[k]
	}
	return float64(sum) / float64(len(r.Nodes))
}

// MinePMIHP runs the parallel MIHP algorithm over the database split
// across cfg.Nodes simulated processing nodes — chronologically by equal
// document counts by default, or by estimated counting work when
// opts.Partitioner selects it (cfg.Split, when set, overrides both). Each
// node runs the node protocol (RunNode) on its own goroutine over an
// in-process exchange whose collectives and polls charge one simulated
// Fast Ethernet fabric, and every node's clock also advances by the work
// that node charges. The nodes' Found lists are merged once, here.
func MinePMIHP(db *txdb.DB, cfg PMIHPConfig, opts mining.Options) (*ParallelResult, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: PMIHP needs at least one node, got %d", cfg.Nodes)
	}
	n := cfg.Nodes
	p := NewNodeParams(db, opts)
	p.Mode, p.ApproxDirectCounts = cfg.Mode, cfg.ApproxDirectCounts
	// The intra-node worker pool divides across the simulated nodes, which
	// already run concurrently: oversubscribing n nodes × full pool would
	// thrash real cores without changing any simulated quantity.
	p.Opts.IntraNodeWorkers = max(p.Opts.Workers()/n, 1)
	split := cfg.Split
	if split == nil {
		split = p.Opts.Partitioner.Split
	}
	parts := split(db, n)
	if len(parts) != n {
		return nil, fmt.Errorf("core: splitter returned %d parts for %d nodes", len(parts), n)
	}

	fabric := cluster.New(n, cluster.FastEthernet)
	xs := transport.NewChanGroup(n, fabric)
	outcomes := make([]*NodeOutcome, n)
	var failed sync.Once
	var failure error
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			outcomes[i], err = RunNode(xs[i], parts[i], p, NodeHooks{clock: fabric.Clock(i), tally: cfg.Tally})
			if err != nil {
				// The first failure is the cause; closing the group releases
				// the peers waiting for this node.
				failed.Do(func() { failure = fmt.Errorf("core: node %d: %w", i, err) })
				xs[i].Close()
			}
		}(i)
	}
	wg.Wait()
	if failure != nil {
		return nil, failure
	}

	globalMin := p.Opts.MinSupCount
	_, _, f1Counted := FrequentItems(outcomes[0].GlobalCounts, globalMin)
	var all []itemset.Counted
	for _, o := range outcomes {
		all = append(all, o.Found...)
	}
	res := &mining.Result{Frequent: MergeFound(f1Counted, all), Metrics: mining.NewMetrics("pmihp")}
	out := &ParallelResult{Result: res, Nodes: make([]NodeReport, n), TotalSeconds: fabric.MaxClock()}
	_, out.THTExchangeSeconds = xs[0].Collective(transport.PhaseTHT)
	finalStart, finalSeconds := xs[0].Collective(transport.PhaseFinal)
	out.FinalExchangeSeconds = finalSeconds
	if cfg.Mode == Deferred {
		// Figure 8's phase runs from the barrier after local mining to the
		// start of the final exchange.
		start, _ := xs[0].Collective(transport.PhaseDeferred)
		out.GlobalCountSeconds = finalStart - start
	}
	for i, o := range outcomes {
		rep := NodeReport{
			Node:           i,
			Docs:           parts[i].Len(),
			LocalMin:       LocalMinCount(globalMin, parts[i].Len(), db.Len()),
			Metrics:        mining.NewMetrics("pmihp-node"),
			Seconds:        fabric.Clock(i).Now(),
			PollServeUnits: o.Server.Work.Units,
		}
		rep.Metrics.Merge(&o.Miner)
		rep.Metrics.Merge(&o.Server)
		rep.Metrics.MessagesSent, rep.Metrics.BytesSent = fabric.Stats(i).Snapshot()
		out.Nodes[i] = rep
		res.Metrics.Merge(&rep.Metrics)
	}
	res.Metrics.Algorithm = "pmihp"

	// Load-balance gauges: busy is the simulated seconds of work a node
	// actually charged (mining plus poll service); idle is the rest of the
	// run it spent waiting on collectives and stragglers. The imbalance
	// ratio (max busy over mean busy, 1.0 = perfectly balanced) is the
	// quantity the work partitioner exists to minimize.
	if r := opts.Obs; r.Enabled() {
		var maxBusy, sumBusy float64
		for i := range out.Nodes {
			busy := out.Nodes[i].Metrics.Work.Seconds()
			r.SetNodeFloatGauge("busy_seconds", i, busy)
			idle := out.TotalSeconds - busy
			if idle < 0 {
				idle = 0
			}
			r.SetNodeFloatGauge("idle_seconds", i, idle)
			if busy > maxBusy {
				maxBusy = busy
			}
			sumBusy += busy
		}
		if sumBusy > 0 {
			r.SetFloatGauge("pass_imbalance_ratio", maxBusy*float64(n)/sumBusy)
		}
	}
	return out, nil
}
