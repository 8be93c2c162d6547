// Package distmine is the multi-process cluster runtime: a coordinator
// ships each logical node its partition of the database, and node daemons
// run the PMIHP node protocol of internal/core (core.RunNode) among
// themselves over TCP — the same protocol core.MinePMIHP runs in-process
// with simulated clocks. Polling is interleaved with local mining as in
// the paper: a node flushes its queued global candidates after any pass
// that leaves a batch of them. In exact mode the flush schedule is
// invisible in the output — polls have no feedback into local mining,
// exact counts sum identically in any order, and the merge is a
// deterministic sort — which is why the cluster produces frequent
// itemsets byte-identical to the in-process miner.
package distmine

import (
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/transport"
)

// NodeStats is the per-node outcome of a cluster run: measured wire
// traffic and the wall-clock seconds of each exchange phase.
type NodeStats struct {
	Node int
	Docs int
	Wire transport.WireStatsSnapshot
	// PhaseSeconds: [0] item-count exchange, [1] THT exchange,
	// [2] candidate polling, [3] final frequent-list exchange.
	PhaseSeconds [4]float64
	// BusySeconds is the node's deterministic modeled busy time (mining
	// plus poll service, from the work-unit accounting).
	BusySeconds float64
}

// Result is the outcome of a distmine cluster run.
type Result struct {
	// Frequent is the merged globally frequent itemset list, identical
	// to core.MinePMIHP's on the same inputs.
	Frequent []itemset.Counted
	// Metrics carries the cluster-wide measured traffic in its Wire*
	// fields, plus the session's recovery counters.
	Metrics mining.Metrics
	Nodes   []NodeStats
	// Imbalance is the run's pass-imbalance ratio (core.ImbalanceRatio)
	// over the nodes' modeled busy seconds. Deterministic for a given
	// database and partitioning.
	Imbalance float64
}
