package distmine

import (
	"fmt"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
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

// TestInProcessWireBytesUnderDense guards the sparse item-count and THT
// blobs: an 8-daemon session on a sample shaped like the benchmark's
// tcp-8wk inputs (corpus C, 200 documents) must move under a quarter of
// the bytes that the dense blobs of those two exchanges alone would —
// one u32 per item and one per retained THT slot, computed here from the
// session's own partitions. A return to the dense forms fails it.
func TestInProcessWireBytesUnderDense(t *testing.T) {
	const n = 8
	cfg := corpus.CorpusC(corpus.Harness)
	cfg.Docs = 200
	db := buildDB(t, cfg)
	opts := mining.Options{MinSupCount: 3, MaxK: 2, IntraNodeWorkers: 1}
	addrs := startDaemons(t, n, DaemonOptions{})
	got, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, pmihpRef(t, db, n, opts), got)

	resolved := opts.WithDefaults()
	freq, _ := mining.FrequentItems(db.ItemCounts(), opts.MinSupCount)
	// Each node's blob reaches the n-1 others, one send per reception.
	var dense int64
	for _, part := range resolved.Partitioner.Split(db, n) {
		l := tht.Build(part, max(resolved.THTEntries/n, 4), part.ItemCounts(), freq)
		countBlob := 4 + 4*int64(db.NumItems()) // u32 length + one u32 per item
		thtBlob := 12 + int64(l.Bytes())        // u32 geometry header + dense rows
		dense += (n - 1) * (countBlob + thtBlob)
	}
	sent := got.Metrics.WireBytesSent
	t.Logf("session sent %d wire bytes; the dense count and THT blobs alone: %d (%.1fx)", sent, dense, float64(dense)/float64(sent))
	if sent*4 >= dense {
		t.Fatalf("session sent %d wire bytes, not under a quarter of the dense blobs' %d", sent, dense)
	}
}
