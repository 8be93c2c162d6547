package dhp

import (
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
	cfg := corpus.CorpusB(corpus.Small)
	docs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

func TestMatchesApriori(t *testing.T) {
	db := smallDB(t)
	for _, minsup := range []float64{0.10, 0.06, 0.04} {
		opts := mining.Options{MinSupFrac: minsup, MaxK: 4}
		want, err := apriori.Mine(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Mine(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := mining.SameFrequentSets(want, got); !ok {
			t.Fatalf("minsup=%g: %s", minsup, diff)
		}
	}
}

func TestBucketPruningActuallyPrunes(t *testing.T) {
	// Short transactions keep the filters valid; the bucket counts must
	// remove candidate pairs relative to Apriori's full C2.
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.08, MaxK: 2}
	ap, err := apriori.Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dh.Metrics.PrunedByBucket == 0 {
		t.Fatal("DHP pruned nothing")
	}
	if dh.Metrics.CandidatesByK[2] >= ap.Metrics.CandidatesByK[2] {
		t.Fatalf("DHP candidate C2 (%d) not smaller than Apriori's (%d)",
			dh.Metrics.CandidatesByK[2], ap.Metrics.CandidatesByK[2])
	}
}

func TestTrimmingOffSameAnswer(t *testing.T) {
	db := smallDB(t)
	opts := mining.Options{MinSupFrac: 0.06, MaxK: 3}
	on, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisableTrimming = true
	off, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(on, off); !ok {
		t.Fatalf("trimming changed the answer: %s", diff)
	}
}

func TestMemoryBudget(t *testing.T) {
	db := smallDB(t)
	_, err := Mine(db, mining.Options{MinSupFrac: 0.04, MemoryBudget: 1})
	if !mining.IsMemoryErr(err) {
		t.Fatalf("expected memory error, got %v", err)
	}
}

// TestOneBucketArrayPerRun: a run fills one NumBuckets array and clears
// it between levels, so a run on a tiny database that reaches pass 3
// allocates about one array (4 MiB), not one per level.
func TestOneBucketArrayPerRun(t *testing.T) {
	db := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3)},
		{TID: 1, Items: itemset.New(1, 2, 3)},
		{TID: 2, Items: itemset.New(1, 2, 3, 4)},
		{TID: 3, Items: itemset.New(2, 3, 4)},
	}, 5)
	opts := mining.Options{MinSupCount: 2}
	r, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Passes < 3 || r.Metrics.CandidatesByK[3] == 0 {
		t.Fatalf("the run stopped before pass 3: %d passes, %d 3-candidates", r.Metrics.Passes, r.Metrics.CandidatesByK[3])
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Mine(db, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 8<<20 {
		t.Fatalf("a run allocates %d bytes, want below 8 MiB (one %d-bucket array is %d)", got, NumBuckets, 4*NumBuckets)
	}
}

func TestLongTransactionsInvalidateFilterNotAnswer(t *testing.T) {
	// A transaction whose pair count exceeds maxHashedSubsets must disable
	// the filter, not corrupt the result.
	var items []itemset.Item
	for i := 0; i < 250; i++ { // C(250,2) > maxHashedSubsets
		items = append(items, itemset.Item(i))
	}
	txs := []txdb.Transaction{
		{TID: 0, Items: itemset.New(items...)},
		{TID: 1, Items: itemset.New(items[:100]...)},
		{TID: 2, Items: itemset.New(items[50:150]...)},
	}
	db := txdb.New(txs, 300)
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	want, err := apriori.Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(want, got); !ok {
		t.Fatal(diff)
	}
}

func TestHashSubsetsCompleteness(t *testing.T) {
	bucket := make([]int32, NumBuckets)
	items := itemset.New(1, 5, 9, 12)
	if !hashSubsets(items, 3, bucket, 100) {
		t.Fatal("small enumeration refused")
	}
	// C(4,3) = 4 subsets hashed.
	total := int32(0)
	for _, c := range bucket {
		total += c
	}
	if total != 4 {
		t.Fatalf("hashed %d subsets, want 4", total)
	}
	// Refusal for oversized transactions.
	big := make([]itemset.Item, 100)
	for i := range big {
		big[i] = itemset.Item(i)
	}
	if hashSubsets(itemset.New(big...), 3, bucket, 1000) {
		t.Fatal("oversized enumeration accepted")
	}
}

func TestBinomialAtMost(t *testing.T) {
	cases := []struct {
		n, k, limit int
		want        bool
	}{
		{10, 3, 120, true},
		{10, 3, 119, false},
		{5, 9, 1, true}, // k > n: zero subsets
		{100, 3, 100000, false},
	}
	for _, c := range cases {
		if got := binomialAtMost(c.n, c.k, c.limit); got != c.want {
			t.Errorf("binomialAtMost(%d,%d,%d) = %v", c.n, c.k, c.limit, got)
		}
	}
}
