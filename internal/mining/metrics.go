package mining

import "fmt"

// The cost model. Every miner charges work units for the operations that
// dominated runtime on the paper's testbed; the simulated cluster converts
// accumulated units into simulated seconds. Constants are relative weights —
// absolute calibration is a single UnitsPerSecond scale, so changing them
// rescales every curve but cannot change which algorithm wins (the
// experiments compare identical operations across algorithms).
const (
	// CostScanItem: visiting one item of one transaction during a counting
	// pass over the database.
	CostScanItem = 2
	// CostCandidateHit: incrementing one candidate counter after a match.
	CostCandidateHit = 4
	// CostCandidateGen: generating one potential candidate (join plus
	// subset-infrequency checks).
	CostCandidateGen = 8
	// CostTHTSlot: examining one TID-hash-table slot in a GetMaxPossibleCount bound.
	CostTHTSlot = 1
	// CostTreeInsert: inserting one candidate into a hash tree.
	CostTreeInsert = 6
	// CostFPNode: creating or walking one FP-tree node.
	CostFPNode = 10
	// CostBucket: one DHP hash-bucket increment or probe.
	CostBucket = 1

	// UnitsPerSecond converts work units to simulated seconds, calibrated to
	// the paper's 800 MHz Pentium III running interpreted-JIT Java over RMI.
	UnitsPerSecond = 2_000_000
)

// Pass2TreeFanout is the number of leaf buckets of a depth-2 hash tree
// (Fanout² with the tree's fanout of 8). The k=2 counting passes are
// physically executed with sparse pair maps (candidate sets of millions of
// pairs would make real leaf scans intractable on this host), but they are
// *charged* as the equivalent hash-tree scan: per transaction, up to
// Pass2TreeFanout leaf visits, each examining candidates/Pass2TreeFanout
// leaf entries. This keeps the k=2 cost structurally identical to the
// instrumented tree used for k >= 3 (hashtree.WalkCost) — and it is this
// leaf-scan term, growing linearly with the candidate-set size, that makes
// Apriori collapse on text databases while MIHP's THT-pruned candidate sets
// stay cheap.
const Pass2TreeFanout = 64

// Pass2TreeCharge returns the modeled hash-tree scan cost of counting one
// transaction with flen frequent items against nCands candidate pairs.
func Pass2TreeCharge(flen, nCands int) int64 {
	if flen < 2 || nCands == 0 {
		return 0
	}
	paths := flen * (flen - 1) / 2
	if paths > Pass2TreeFanout {
		paths = Pass2TreeFanout
	}
	leaf := nCands/Pass2TreeFanout + 1
	return int64(paths) * int64(leaf)
}

// Work accumulates cost-model charges.
type Work struct {
	Units int64
}

// Charge adds n operations of the given unit cost.
func (w *Work) Charge(n int64, cost int64) { w.Units += n * cost }

// Add merges another accounting into this one.
func (w *Work) Add(o Work) { w.Units += o.Units }

// Seconds converts the accumulated units to simulated seconds.
func (w Work) Seconds() float64 { return float64(w.Units) / UnitsPerSecond }

// Metrics is the per-run (or per-node) accounting every miner fills in.
type Metrics struct {
	Algorithm string

	// Passes is the number of counting scans over the (working) database.
	Passes int

	// CandidatesByK counts the candidate k-itemsets actually counted in
	// scans, per k — the quantity Figures 10 and 11 report.
	CandidatesByK map[int]int

	// PrunedBySubset counts potential candidates dropped by the
	// subset-infrequency check; PrunedByTHT those dropped by the IHP bound;
	// PrunedByBucket those dropped by DHP hash buckets.
	PrunedBySubset int64
	PrunedByTHT    int64
	PrunedByBucket int64

	// TrimmedItems and PrunedTx account transaction trimming/pruning.
	TrimmedItems int64
	PrunedTx     int64

	// PeakCandidateBytes is the high-water estimate of resident candidate
	// memory, compared against Options.MemoryBudget.
	PeakCandidateBytes int64

	// PeakHeldBytes is the high-water resident size of the long-lived data
	// structures owned by this accounting's holder (CSR database and working
	// copy, THT matrices, compressed inverted file, candidate structures),
	// summed from the structures' deterministic MemBytes methods rather than
	// measured from the Go heap — so it is exactly reproducible across runs
	// and machines. Node structures coexist for the whole run, so Merge sums
	// this field: the aggregate is the cluster-wide resident footprint.
	PeakHeldBytes int64

	// FPTreeNodes is the peak node count across all (conditional) FP-trees.
	FPTreeNodes int64

	// Parallel-run fields.
	GlobalCandidates int   // PMIHP global candidates sent to polls
	PollRounds       int   // PMIHP polling rounds
	MessagesSent     int   // fabric messages originated by this node
	BytesSent        int64 // fabric bytes originated by this node

	// Real-wire fields, filled by the multi-process cluster runtime
	// (internal/distmine) from measured TCP traffic. Zero in simulated
	// runs; they coexist with the modeled MessagesSent/BytesSent above so
	// model and measurement can be compared side by side.
	WireMessagesSent     int64
	WireMessagesReceived int64
	WireBytesSent        int64
	WireBytesReceived    int64
	WireRetries          int64
	// WireSeconds is measured wall-clock spent in exchange collectives
	// and candidate polling, summed over the run's phases.
	WireSeconds float64

	// Recovery fields, filled by the coordinator when a cluster session
	// survives aborted attempts. Every recovery re-splits the database
	// across the next roster, one partition per daemon. Failovers counts
	// detected node deaths that were recovered from; RebalancedPartitions
	// counts straggler re-splits that dropped the lagging daemon (its one
	// partition; never counted as a failover — the slow worker stays
	// alive); ElasticResizes counts the session owner's mid-run resizes
	// plus straggler re-splits that grew onto idle pool workers;
	// RecoverySeconds is wall-clock spent between attempts, excluded from
	// WireSeconds.
	Failovers            int
	RebalancedPartitions int
	ElasticResizes       int
	RecoverySeconds      float64

	Work Work
}

// NewMetrics returns a Metrics for the named algorithm.
func NewMetrics(algorithm string) Metrics {
	return Metrics{Algorithm: algorithm, CandidatesByK: make(map[int]int)}
}

// AddCandidates records n candidate k-itemsets entering a counting scan.
func (m *Metrics) AddCandidates(k, n int) {
	if m.CandidatesByK == nil {
		m.CandidatesByK = make(map[int]int)
	}
	m.CandidatesByK[k] += n
}

// Candidates returns the total candidates counted across all k.
func (m *Metrics) Candidates() int {
	n := 0
	for _, c := range m.CandidatesByK {
		n += c
	}
	return n
}

// NoteCandidateBytes raises the peak candidate memory estimate.
func (m *Metrics) NoteCandidateBytes(b int64) {
	if b > m.PeakCandidateBytes {
		m.PeakCandidateBytes = b
	}
}

// NoteHeldBytes raises the peak resident-structure estimate.
func (m *Metrics) NoteHeldBytes(b int64) {
	if b > m.PeakHeldBytes {
		m.PeakHeldBytes = b
	}
}

// Merge folds per-node metrics into an aggregate. Almost every field sums:
// counts, modeled work, measured wire traffic and timings, and recovery
// accounting are all additive across nodes. Two structural peaks take the
// max instead — PeakCandidateBytes (the candidate budget is a per-node
// limit, so the aggregate reports the worst node) and FPTreeNodes.
// PeakHeldBytes deliberately SUMS: node-resident structures coexist for
// the whole run, so the aggregate is the cluster-wide resident footprint
// (see the field comment). TestMergeFieldSemantics audits every field.
func (m *Metrics) Merge(o *Metrics) {
	m.Passes += o.Passes
	for k, n := range o.CandidatesByK {
		m.AddCandidates(k, n)
	}
	m.PrunedBySubset += o.PrunedBySubset
	m.PrunedByTHT += o.PrunedByTHT
	m.PrunedByBucket += o.PrunedByBucket
	m.TrimmedItems += o.TrimmedItems
	m.PrunedTx += o.PrunedTx
	if o.PeakCandidateBytes > m.PeakCandidateBytes {
		m.PeakCandidateBytes = o.PeakCandidateBytes
	}
	m.PeakHeldBytes += o.PeakHeldBytes
	if o.FPTreeNodes > m.FPTreeNodes {
		m.FPTreeNodes = o.FPTreeNodes
	}
	m.GlobalCandidates += o.GlobalCandidates
	m.PollRounds += o.PollRounds
	m.MessagesSent += o.MessagesSent
	m.BytesSent += o.BytesSent
	m.WireMessagesSent += o.WireMessagesSent
	m.WireMessagesReceived += o.WireMessagesReceived
	m.WireBytesSent += o.WireBytesSent
	m.WireBytesReceived += o.WireBytesReceived
	m.WireRetries += o.WireRetries
	m.WireSeconds += o.WireSeconds
	m.Failovers += o.Failovers
	m.RebalancedPartitions += o.RebalancedPartitions
	m.ElasticResizes += o.ElasticResizes
	m.RecoverySeconds += o.RecoverySeconds
	m.Work.Add(o.Work)
}

// CandidateBytes estimates the resident size of n candidate k-itemsets in a
// counting structure (itemset storage plus hash-tree overhead), mirroring
// the paper's observation that candidate memory is the limiting factor for
// Apriori and Count Distribution.
func CandidateBytes(k, n int) int64 {
	per := int64(4*k + 40)
	return per * int64(n)
}

// String summarizes the metrics for logs.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s: passes=%d candidates=%d work=%.1fs peakMB=%.1f",
		m.Algorithm, m.Passes, m.Candidates(), m.Work.Seconds(),
		float64(m.PeakCandidateBytes)/(1<<20))
}
