package distmine

import (
	"fmt"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/mining"
)

// TestInProcessMatchesPMIHP: the coordinator driving node daemons served
// in this process must return core.MinePMIHP's frequent list at every
// node count — one node, power of two or not — under absolute and
// fractional support, bounded and unbounded depth.
func TestInProcessMatchesPMIHP(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		opts  mining.Options
	}{
		{1, mining.Options{MinSupCount: 2, MaxK: 3}},
		{2, mining.Options{MinSupCount: 2, MaxK: 3}},
		{4, mining.Options{MinSupFrac: 0.05, MaxK: 4}},
		{7, mining.Options{MinSupCount: 2, MaxK: 3}}, // non-power-of-two
		{8, mining.Options{MinSupCount: 3}},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.nodes), func(t *testing.T) {
			addrs := startDaemons(t, tc.nodes, DaemonOptions{})
			db := buildDB(t, corpus.CorpusB(corpus.Small))
			ref := pmihpRef(t, db, tc.nodes, tc.opts)
			got, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, got)
			if len(got.Nodes) != tc.nodes {
				t.Fatalf("node stats: %d, want %d", len(got.Nodes), tc.nodes)
			}
		})
	}
}

func TestInProcessWireStatsAccounted(t *testing.T) {
	addrs := startDaemons(t, 4, DaemonOptions{})
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	res, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry}, mining.Options{MinSupCount: 2, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.WireMessagesSent == 0 || res.Metrics.WireBytesSent == 0 {
		t.Fatalf("wire traffic not accounted: %+v", res.Metrics)
	}
	if res.Metrics.WireRetries != 0 {
		t.Fatalf("fault-free exchange reported retries: %d", res.Metrics.WireRetries)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("node stats: %d", len(res.Nodes))
	}
}
