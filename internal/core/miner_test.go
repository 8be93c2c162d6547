package core

import (
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// craftedDB builds a hand-written database where the frequent structure is
// known exactly: items 0,1,2 co-occur in 3 docs; {4,5} in 2; item 9 occurs
// once.
func craftedDB() *txdb.DB {
	txs := []txdb.Transaction{
		{TID: 0, Day: 0, Items: itemset.New(0, 1, 2, 9)},
		{TID: 1, Day: 0, Items: itemset.New(0, 1, 2, 4)},
		{TID: 2, Day: 1, Items: itemset.New(0, 1, 2, 5)},
		{TID: 3, Day: 1, Items: itemset.New(4, 5)},
		{TID: 4, Day: 1, Items: itemset.New(4, 5, 7)},
		{TID: 5, Day: 1, Items: itemset.New(7)},
	}
	return txdb.New(txs, 10)
}

func TestMIHPCraftedExact(t *testing.T) {
	r, err := MineMIHP(craftedDB(), mining.Options{MinSupCount: 2, PartitionSize: 2, THTEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		itemset.New(0).Key():       3,
		itemset.New(1).Key():       3,
		itemset.New(2).Key():       3,
		itemset.New(4).Key():       3,
		itemset.New(5).Key():       3,
		itemset.New(7).Key():       2,
		itemset.New(0, 1).Key():    3,
		itemset.New(0, 2).Key():    3,
		itemset.New(1, 2).Key():    3,
		itemset.New(4, 5).Key():    2,
		itemset.New(0, 1, 2).Key(): 3,
	}
	if len(r.Frequent) != len(want) {
		t.Fatalf("found %d itemsets, want %d: %v", len(r.Frequent), len(want), r.Frequent)
	}
	for _, c := range r.Frequent {
		if want[c.Set.Key()] != c.Count {
			t.Fatalf("%v count %d, want %d", c.Set, c.Count, want[c.Set.Key()])
		}
	}
}

// TestMIHPTinyPartitions forces one item per partition — the maximum number
// of multipass rounds — and the answer must not change.
func TestMIHPTinyPartitions(t *testing.T) {
	db := craftedDB()
	ref, err := MineMIHP(db, mining.Options{MinSupCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := MineMIHP(db, mining.Options{MinSupCount: 2, PartitionSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(ref, tiny); !ok {
		t.Fatalf("partition size 1 changed the answer: %s", diff)
	}
	// And IHP (single partition) agrees too.
	ihp, err := MineIHP(db, mining.Options{MinSupCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(ref, ihp); !ok {
		t.Fatalf("IHP changed the answer: %s", diff)
	}
	if ihp.Metrics.Algorithm != "ihp" {
		t.Fatalf("algorithm label = %q", ihp.Metrics.Algorithm)
	}
}

// TestMIHPTinyTHT stresses heavy slot collision (a 1-entry table prunes
// nothing but must stay sound).
func TestMIHPTinyTHT(t *testing.T) {
	db := craftedDB()
	ref := mining.BruteForce(db, mining.Options{MinSupCount: 2})
	got, err := MineMIHP(db, mining.Options{MinSupCount: 2, THTEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(ref, got); !ok {
		t.Fatalf("1-entry THT broke the answer: %s", diff)
	}
}

func TestMIHPEmptyAndDegenerate(t *testing.T) {
	empty := txdb.New(nil, 5)
	r, err := MineMIHP(empty, mining.Options{MinSupCount: 1})
	if err != nil || len(r.Frequent) != 0 {
		t.Fatalf("empty db: %v, %v", r.Frequent, err)
	}
	// A database where nothing reaches the threshold.
	one := txdb.New([]txdb.Transaction{{TID: 0, Items: itemset.New(1, 2)}}, 5)
	r, err = MineMIHP(one, mining.Options{MinSupCount: 2})
	if err != nil || len(r.Frequent) != 0 {
		t.Fatalf("nothing frequent: %v, %v", r.Frequent, err)
	}
	// MaxK = 1 returns only items.
	r, err = MineMIHP(craftedDB(), mining.Options{MinSupCount: 2, MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Frequent {
		if len(c.Set) != 1 {
			t.Fatalf("MaxK=1 emitted %v", c.Set)
		}
	}
}

// TestTrimmingPreservesCandidateCounts crafts a case where trimming removes
// items and transactions yet all candidate supports stay exact.
func TestTrimmingPreservesCandidateCounts(t *testing.T) {
	// 12 documents built so that pass-2 trimming has real work: item 99
	// occurs frequently but in no frequent pair.
	var txs []txdb.Transaction
	for i := 0; i < 6; i++ {
		txs = append(txs, txdb.Transaction{
			TID: txdb.TID(2 * i), Items: itemset.New(1, 2, 3, 4)})
		txs = append(txs, txdb.Transaction{
			TID: txdb.TID(2*i + 1), Items: itemset.New(99, itemset.Item(10+i))})
	}
	db := txdb.New(txs, 120)
	want := mining.BruteForce(db, mining.Options{MinSupCount: 3})
	got, err := MineMIHP(db, mining.Options{MinSupCount: 3, PartitionSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(want, got); !ok {
		t.Fatal(diff)
	}
	if got.Metrics.TrimmedItems == 0 && got.Metrics.PrunedTx == 0 {
		t.Fatal("crafted case exercised no trimming")
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	var lm localMiner
	for _, pair := range [][2]itemset.Item{{0, 1}, {5, 1 << 30}, {12345, 67890}} {
		key := mining.PairKey(pair[0], pair[1])
		got := lm.pairSet(key)
		if got[0] != pair[0] || got[1] != pair[1] {
			t.Fatalf("round trip of %v = %v", pair, got)
		}
	}
}

func TestBoundViableRespectsCascade(t *testing.T) {
	// Two nodes: items 1,2 co-occur only at node 0. A miner at node 1 must
	// prune the pair via its own segment even when the cascade is positive.
	n0 := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2)},
		{TID: 1, Items: itemset.New(1, 2)},
	}, 5)
	n1 := txdb.New([]txdb.Transaction{
		{TID: 2, Items: itemset.New(1)},
		{TID: 3, Items: itemset.New(2)},
	}, 5)
	all := []bool{true, true, true, true, true}
	l0 := tht.Build(n0, 4, n0.ItemCounts(), all)
	l1 := tht.Build(n1, 4, n1.ItemCounts(), all)
	g := tht.NewGlobal([]*tht.Local{l0, l1})

	ok, _ := g.Segment(0).BoundReaches(itemset.New(1, 2), 1)
	if !ok {
		t.Fatal("node 0 segment should admit the pair")
	}
	// Node 1: TIDs 2 and 3 hash to different slots of a 4-entry table, so
	// the local bound must be zero.
	ok, _ = g.Segment(1).BoundReaches(itemset.New(1, 2), 1)
	if ok {
		t.Fatal("node 1 segment should refute the pair")
	}
	// The cascade still reaches 2 thanks to node 0.
	ok, _ = g.BoundReaches(itemset.New(1, 2), 2)
	if !ok {
		t.Fatal("cascade should admit the pair at threshold 2")
	}
}

func TestPMIHPRejectsBadSplitter(t *testing.T) {
	db := craftedDB()
	_, err := MinePMIHP(db, PMIHPConfig{
		Nodes: 3,
		Split: func(d *txdb.DB, n int) []*txdb.DB { return d.SplitChronological(2) },
	}, mining.Options{MinSupCount: 2})
	if err == nil {
		t.Fatal("mismatched splitter accepted")
	}
}

func TestPMIHPWithSkewAwareSplitGivesSameAnswer(t *testing.T) {
	db := craftedDB()
	opts := mining.Options{MinSupCount: 2}
	ref, err := MineMIHP(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []func(*txdb.DB, int) []*txdb.DB{
		(*txdb.DB).SplitRoundRobin,
		(*txdb.DB).SplitSkewAware,
	} {
		r, err := MinePMIHP(db, PMIHPConfig{Nodes: 2, Split: split}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := mining.SameFrequentSets(ref, r.Result); !ok {
			t.Fatalf("alternative split changed the answer: %s", diff)
		}
	}
}
