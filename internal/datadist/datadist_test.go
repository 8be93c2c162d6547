package datadist

import (
	"testing"

	"pmihp/internal/apriori"
	"pmihp/internal/cluster"
	"pmihp/internal/corpus"
	"pmihp/internal/countdist"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

func smallDB(t testing.TB) *txdb.DB {
	t.Helper()
	docs, err := corpus.Generate(corpus.CorpusB(corpus.Small))
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

func TestMatchesApriori(t *testing.T) {
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.06, MaxK: 4}
	want, err := apriori.Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 8} {
		got, err := Mine(db, Config{Nodes: nodes}, opts)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if ok, diff := mining.SameFrequentSets(want, got.Result); !ok {
			t.Fatalf("nodes=%d: %s", nodes, diff)
		}
	}
}

// TestMemoryShareBelowCD is DD's defining property: its per-node candidate
// memory is roughly 1/N of Count Distribution's.
func TestMemoryShareBelowCD(t *testing.T) {
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.05, MaxK: 2}
	cd, err := countdist.Mine(db, countdist.Config{Nodes: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := Mine(db, Config{Nodes: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cdPeak := cd.Nodes[0].Metrics.PeakCandidateBytes
	ddPeak := dd.Nodes[0].Metrics.PeakCandidateBytes
	if ddPeak*2 >= cdPeak {
		t.Fatalf("DD peak %d not well below CD peak %d", ddPeak, cdPeak)
	}
	// And a budget that kills CD admits DD.
	budget := (ddPeak + cdPeak) / 2
	bopts := opts
	bopts.MemoryBudget = budget
	if _, err := countdist.Mine(db, countdist.Config{Nodes: 4}, bopts); !mining.IsMemoryErr(err) {
		t.Fatalf("CD should OOM at %d, got %v", budget, err)
	}
	if _, err := Mine(db, Config{Nodes: 4}, bopts); err != nil {
		t.Fatalf("DD should run at %d: %v", budget, err)
	}
}

// TestShipsDatabaseEveryPass is DD's defining cost: from pass 2 on, every
// node broadcasts its local partition to all peers, so total traffic is at
// least (counting passes beyond the first) × (N-1) × database size.
func TestShipsDatabaseEveryPass(t *testing.T) {
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.05, MaxK: 3}
	dd, err := Mine(db, Config{Nodes: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	db.Each(func(tx *txdb.Transaction) { items += len(tx.Items) })
	dbBytes := int64(4*items + 8*db.Len())

	total := int64(0)
	for i := range dd.Nodes {
		total += dd.Nodes[i].Metrics.BytesSent
	}
	passes := dd.Nodes[0].Metrics.Passes
	if passes < 2 {
		t.Fatalf("run too shallow: %d passes", passes)
	}
	wantAtLeast := int64(passes-1) * 3 * dbBytes // (N-1)=3 transfers of each byte
	if total < wantAtLeast {
		t.Fatalf("DD traffic %d below the per-pass broadcast floor %d", total, wantAtLeast)
	}
}

// TestBroadcastInExchangeSeconds: from pass 2 on, each pass's exchange
// entry, and node 0's pass event, include the pass's database broadcast —
// at least the slowest node's modeled sends and receives of it — besides
// the closing collective.
func TestBroadcastInExchangeSeconds(t *testing.T) {
	docs, err := corpus.Generate(corpus.CorpusA(corpus.Small))
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	const nodes = 8
	rec := obs.New(obs.Config{Keep: true})
	opts := mining.Options{MinSupFrac: 0.02, MaxK: 4, Obs: rec}
	dd, err := Mine(db, Config{Nodes: nodes}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Node k sends its partition to every peer and receives every peer's.
	net := cluster.FastEthernet
	msg := make([]float64, nodes)
	for i, p := range opts.WithDefaults().Partitioner.Split(db, nodes) {
		msg[i] = net.MsgSec(int64(4*p.TotalItems() + 8*p.Len()))
	}
	broadcast := 0.0
	for k := range msg {
		sec := 0.0
		for j := range msg {
			if j != k {
				sec += msg[k] + msg[j]
			}
		}
		broadcast = max(broadcast, sec)
	}

	exch := dd.ExchangeSecondsByPass
	if len(exch) < 3 {
		t.Fatalf("%d passes, want at least 3", len(exch))
	}
	for k := 2; k <= len(exch); k++ {
		if got := exch[k-1]; got < broadcast*(1-1e-9) {
			t.Fatalf("pass %d: exchange %v s, below its %v s broadcast", k, got, broadcast)
		}
	}
	for _, ev := range rec.Events() {
		if p := ev.Pass; p != nil && p.Node == 0 && p.ExchangeSeconds != exch[p.K-1] {
			t.Fatalf("pass %d: node 0's event carries %v s, the result %v s", p.K, p.ExchangeSeconds, exch[p.K-1])
		}
	}
}

func TestRejectsZeroNodes(t *testing.T) {
	if _, err := Mine(smallDB(t), Config{}, mining.Options{MinSupFrac: 0.1}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestMaxK1AndDegenerate(t *testing.T) {
	db := smallDB(t)
	r, err := Mine(db, Config{Nodes: 2}, mining.Options{MinSupCount: 3, MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Result.Frequent {
		if len(c.Set) != 1 {
			t.Fatalf("MaxK=1 emitted %v", c.Set)
		}
	}
	r, err = Mine(db, Config{Nodes: 3}, mining.Options{MinSupCount: db.Len() + 1})
	if err != nil || len(r.Result.Frequent) != 0 {
		t.Fatalf("nothing-frequent case: %d itemsets, %v", len(r.Result.Frequent), err)
	}
}

func TestDeepPassesAgree(t *testing.T) {
	// Push past k=3 so the generic-generation branch runs.
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.05}
	want, err := apriori.Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(db, Config{Nodes: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(want, got.Result); !ok {
		t.Fatal(diff)
	}
}
