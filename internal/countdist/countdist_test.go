package countdist

import (
	"slices"
	"testing"

	"pmihp/internal/apriori"
	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
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

// TestMatchesApriori is the defining property of Count Distribution: on any
// node count it computes exactly the sequential Apriori answer.
func TestMatchesApriori(t *testing.T) {
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.06, MaxK: 4}
	want, err := apriori.Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 3, 4, 8} {
		got, err := Mine(db, Config{Nodes: nodes}, opts)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if ok, diff := mining.SameFrequentSets(want, got.Result); !ok {
			t.Fatalf("nodes=%d: %s", nodes, diff)
		}
	}
}

func TestCandidatesReplicatedAtEveryNode(t *testing.T) {
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.06, MaxK: 3}
	r, err := Mine(db, Config{Nodes: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every node counts the same candidate set — the redundancy the paper
	// criticizes.
	first := r.Nodes[0].Metrics.CandidatesByK
	for _, n := range r.Nodes[1:] {
		for k, v := range first {
			if n.Metrics.CandidatesByK[k] != v {
				t.Fatalf("node %d counts %d k=%d candidates, node 0 counts %d",
					n.Node, n.Metrics.CandidatesByK[k], k, v)
			}
		}
	}
}

func TestMemoryBudgetOOM(t *testing.T) {
	db := smallDB(t)
	_, err := Mine(db, Config{Nodes: 4}, mining.Options{MinSupFrac: 0.04, MemoryBudget: 1000})
	if !mining.IsMemoryErr(err) {
		t.Fatalf("expected memory error, got %v", err)
	}
}

func TestSimulatedTimeScalesDown(t *testing.T) {
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.05, MaxK: 3}
	t1, err := Mine(db, Config{Nodes: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Mine(db, Config{Nodes: 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if t8.TotalSeconds >= t1.TotalSeconds {
		t.Fatalf("8 nodes (%.2fs) not faster than 1 (%.2fs)", t8.TotalSeconds, t1.TotalSeconds)
	}
	// CD's speedup cannot be superlinear: the candidate generation work is
	// replicated at every node.
	if sp := t1.TotalSeconds / t8.TotalSeconds; sp > 8 {
		t.Fatalf("CD speedup %.1f is superlinear", sp)
	}
}

func TestRejectsZeroNodes(t *testing.T) {
	db := smallDB(t)
	if _, err := Mine(db, Config{}, mining.Options{MinSupFrac: 0.1}); err == nil {
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
	// Threshold above every count: nothing frequent, no error.
	r, err = Mine(db, Config{Nodes: 2}, mining.Options{MinSupCount: db.Len() + 1})
	if err != nil || len(r.Result.Frequent) != 0 {
		t.Fatalf("nothing-frequent case: %d itemsets, %v", len(r.Result.Frequent), err)
	}
}

func TestNodeStatsPopulated(t *testing.T) {
	db := smallDB(t)
	r, err := Mine(db, Config{Nodes: 4}, mining.Options{MinSupFrac: 0.08, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Nodes {
		if n.Seconds <= 0 {
			t.Fatalf("node %d has no simulated time", n.Node)
		}
		if n.Metrics.BytesSent <= 0 {
			t.Fatalf("node %d sent no bytes (all-reduce missing)", n.Node)
		}
	}
}

// TestOneNodeIsApriori: Count Distribution on one node is Apriori. It
// finds the same frequent list and charges the same work units and
// subset prunings, also when every candidate a join produces fails the
// subset check (the tiny database's {0,1,2}, whose pair {1,2} never
// occurs).
func TestOneNodeIsApriori(t *testing.T) {
	tiny := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(0, 1)},
		{TID: 1, Items: itemset.New(0, 1)},
		{TID: 2, Items: itemset.New(0, 2)},
		{TID: 3, Items: itemset.New(0, 2)},
		{TID: 4, Items: itemset.New(1)},
		{TID: 5, Items: itemset.New(2)},
	}, 3)
	docs, err := corpus.Generate(corpus.CorpusC(corpus.Small))
	if err != nil {
		t.Fatal(err)
	}
	presetC, _ := text.ToDB(docs, nil)
	for _, c := range []struct {
		name string
		db   *txdb.DB
		opts mining.Options
	}{
		{"tiny", tiny, mining.Options{MinSupCount: 2}},
		{"corpus-c", presetC, mining.Options{MinSupFrac: 0.02, MaxK: 4}},
	} {
		want, err := apriori.Mine(c.db, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Mine(c.db, Config{Nodes: 1}, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got.Result.Frequent, want.Frequent, func(a, b itemset.Counted) bool {
			return a.Count == b.Count && itemset.Compare(a.Set, b.Set) == 0
		}) {
			t.Errorf("%s: frequent list differs from Apriori's", c.name)
		}
		gm, wm := got.Result.Metrics, want.Metrics
		if gm.Work.Units != wm.Work.Units || gm.PrunedBySubset != wm.PrunedBySubset {
			t.Errorf("%s: work units %d, pruned by subset %d; Apriori %d, %d",
				c.name, gm.Work.Units, gm.PrunedBySubset, wm.Work.Units, wm.PrunedBySubset)
		}
	}
}
