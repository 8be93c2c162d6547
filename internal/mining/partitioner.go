package mining

import (
	"fmt"

	"pmihp/internal/txdb"
)

// Partitioner selects how a parallel miner splits the database across its
// nodes. Unlike IntraNodeWorkers this is NOT a pure physical-layout
// knob: the partitioning decides each node's local database and local
// support threshold, so per-node candidate sets, work units, and
// simulated clocks legitimately differ between partitioners — that
// difference is the point. The *frequent itemsets* are identical for
// every partitioner, because PMIHP resolves every global candidate by
// exact polling against the union of the local databases, which every
// partitioning preserves.
type Partitioner int

const (
	// PartitionByCount splits into nearly equal document counts along
	// chronological order — the paper's assignment (txdb.SplitChronological).
	// The zero value, so existing configurations are unchanged.
	PartitionByCount Partitioner = iota

	// PartitionByWork splits on the prefix sum of per-transaction estimated
	// counting work (txdb.SplitByWork): nodes receive nearly equal shares
	// of the scan-plus-candidate-pair cost estimate instead of equal
	// document counts, which equalizes node clocks when document length is
	// skewed across the corpus timeline.
	PartitionByWork
)

// ParsePartitioner converts a flag value ("count", "work"); the empty
// string selects the default count partitioner.
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "", "count":
		return PartitionByCount, nil
	case "work":
		return PartitionByWork, nil
	}
	return 0, fmt.Errorf("mining: unknown partitioner %q (want count|work)", s)
}

func (p Partitioner) String() string {
	switch p {
	case PartitionByCount:
		return "count"
	case PartitionByWork:
		return "work"
	}
	return fmt.Sprintf("Partitioner(%d)", int(p))
}

// Valid reports whether p names a defined partitioner — the wire decoder's
// validation predicate.
func (p Partitioner) Valid() bool {
	return p == PartitionByCount || p == PartitionByWork
}

// Split cuts db into n node partitions under the partitioner. Either way
// every partition is a contiguous chronological range and their union is
// db; the partitioners differ only in where the cuts fall.
func (p Partitioner) Split(db *txdb.DB, n int) []*txdb.DB {
	if p == PartitionByWork {
		return db.SplitByWork(n)
	}
	return db.SplitChronological(n)
}
