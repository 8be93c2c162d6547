package mining

import (
	"math/rand"
	"slices"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/txdb"
)

func randDB(seed int64, docs, vocab, docLen int) *txdb.DB {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]txdb.Transaction, docs)
	for i := range txs {
		seen := map[itemset.Item]struct{}{}
		for len(seen) < docLen {
			seen[itemset.Item(rng.Intn(vocab))] = struct{}{}
		}
		items := make([]itemset.Item, 0, docLen)
		for it := range seen {
			items = append(items, it)
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(items...)}
	}
	return txdb.New(txs, vocab)
}

func TestOptionsMinCount(t *testing.T) {
	cases := []struct {
		opts Options
		db   int
		want int
	}{
		{Options{MinSupFrac: 0.02}, 1000, 20},
		{Options{MinSupFrac: 0.0175}, 1000, 18},
		{Options{MinSupCount: 2}, 1000, 2},
		{Options{MinSupCount: 2, MinSupFrac: 0.5}, 1000, 2}, // count wins
		{Options{MinSupFrac: 0.000001}, 1000, 1},            // clamps to 1
		{Options{MinSupFrac: 0.05}, 200, 10},
		{Options{MinSupFrac: 0.02}, 200, 4},
		{Options{MinSupFrac: 0.001}, 200, 1}, // clamps to 1
		{Options{MinSupFrac: 0.015}, 200, 3}, // rounds up
	}
	for _, c := range cases {
		if got := c.opts.MinCount(c.db); got != c.want {
			t.Errorf("MinCount(%+v, %d) = %d, want %d", c.opts, c.db, got, c.want)
		}
	}
}

// TestFrequentItems: F1 holds, ascending, exactly the items whose count
// reaches the minimum, and its counted form pairs each with its count.
func TestFrequentItems(t *testing.T) {
	counts := []int{0, 3, 2, 2, 1}
	freq, f1 := FrequentItems(counts, 2)
	if !slices.Equal(f1, []itemset.Item{1, 2, 3}) {
		t.Fatalf("f1 = %v, want [1 2 3]", f1)
	}
	if !slices.Equal(freq, []bool{false, true, true, true, false}) {
		t.Fatalf("freq = %v", freq)
	}
	counted := CountedItems(f1, counts)
	want := []itemset.Counted{{Set: itemset.Itemset{1}, Count: 3}, {Set: itemset.Itemset{2}, Count: 2}, {Set: itemset.Itemset{3}, Count: 2}}
	if !slices.EqualFunc(counted, want, func(a, b itemset.Counted) bool {
		return a.Count == b.Count && itemset.Compare(a.Set, b.Set) == 0
	}) {
		t.Fatalf("counted = %v, want %v", counted, want)
	}
	if _, f1 := FrequentItems(counts, 4); len(f1) != 0 {
		t.Fatalf("nothing reaches 4, got %v", f1)
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.PartitionSize != 100 || o.THTEntries != 400 || o.GlobalCandidateBatch != 20000 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{PartitionSize: 7, THTEntries: 16, GlobalCandidateBatch: 3}.WithDefaults()
	if o2.PartitionSize != 7 || o2.THTEntries != 16 || o2.GlobalCandidateBatch != 3 {
		t.Fatalf("explicit values overwritten: %+v", o2)
	}
}

func TestCountSupport(t *testing.T) {
	db := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3)},
		{TID: 1, Items: itemset.New(1, 3)},
		{TID: 2, Items: itemset.New(2, 3)},
	}, 5)
	if got := CountSupport(db, itemset.New(1, 3)); got != 2 {
		t.Fatalf("CountSupport = %d", got)
	}
	if got := CountSupport(db, itemset.New(1, 2, 3)); got != 1 {
		t.Fatalf("CountSupport = %d", got)
	}
}

// TestAprioriGenMatchesNaive: the grouped prefix join must produce exactly
// the candidates a naive all-pairs join with full subset checks produces.
func TestAprioriGenMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(3)
		// Random frequent (k-1)-itemsets, downward closure not required for
		// the equivalence (both sides use the same prevSet).
		prevSet := itemset.NewSet()
		var prev []itemset.Itemset
		for len(prev) < 30 {
			raw := make([]uint32, k)
			for j := range raw {
				raw[j] = uint32(rng.Intn(12))
			}
			is := itemset.New(raw...)
			if len(is) == k && !prevSet.Has(is) {
				prevSet.Add(is)
				prev = append(prev, is)
			}
		}
		itemset.Sort(prev)

		cands, _, _ := AprioriGen(prev, prevSet)

		// Naive: all pairs, itemset.Join, all-subset check.
		naive := itemset.NewSet()
		for i := 0; i < len(prev); i++ {
			for j := i + 1; j < len(prev); j++ {
				cand, ok := itemset.Join(prev[i], prev[j])
				if !ok {
					continue
				}
				all := true
				cand.EachSubset(func(sub itemset.Itemset) bool {
					if !prevSet.Has(sub) {
						all = false
						return false
					}
					return true
				})
				if all {
					naive.Add(cand)
				}
			}
		}
		if len(cands) != naive.Len() {
			t.Fatalf("trial %d: AprioriGen %d vs naive %d", trial, len(cands), naive.Len())
		}
		for _, c := range cands {
			if !naive.Has(c) {
				t.Fatalf("trial %d: unexpected candidate %v", trial, c)
			}
		}
	}
}

// TestGen3MatchesAprioriGen: the packed-pair specialization must equal the
// generic generator when the pair set equals the prev set.
func TestGen3MatchesAprioriGen(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		prevSet := itemset.NewSet()
		all2 := NewPairTable(0)
		var prev []itemset.Itemset
		for len(prev) < 50 {
			a, b := uint32(rng.Intn(15)), uint32(rng.Intn(15))
			if a == b {
				continue
			}
			is := itemset.New(a, b)
			if !prevSet.Has(is) {
				prevSet.Add(is)
				all2.AddPair(is[0], is[1])
				prev = append(prev, is)
			}
		}
		itemset.Sort(prev)
		got, gp, gpr := Gen3(prev, all2)
		want, wp, wpr := AprioriGen(prev, prevSet)
		if len(got) != len(want) || gp != wp || gpr != wpr {
			t.Fatalf("trial %d: Gen3 %d/%d/%d vs AprioriGen %d/%d/%d",
				trial, len(got), gp, gpr, len(want), wp, wpr)
		}
		ws := itemset.SetOf(want...)
		for _, c := range got {
			if !ws.Has(c) {
				t.Fatalf("trial %d: Gen3 extra %v", trial, c)
			}
		}
	}
}

func TestBruteForceKnownAnswer(t *testing.T) {
	db := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3)},
		{TID: 1, Items: itemset.New(1, 2, 3)},
		{TID: 2, Items: itemset.New(1, 2)},
		{TID: 3, Items: itemset.New(3)},
	}, 5)
	r := BruteForce(db, Options{MinSupCount: 2})
	want := map[string]int{
		itemset.New(1).Key():       3,
		itemset.New(2).Key():       3,
		itemset.New(3).Key():       3,
		itemset.New(1, 2).Key():    3,
		itemset.New(1, 3).Key():    2,
		itemset.New(2, 3).Key():    2,
		itemset.New(1, 2, 3).Key(): 2,
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

func TestBruteForceMaxK(t *testing.T) {
	db := randDB(3, 30, 20, 6)
	r := BruteForce(db, Options{MinSupCount: 2, MaxK: 2})
	for _, c := range r.Frequent {
		if len(c.Set) > 2 {
			t.Fatalf("MaxK violated: %v", c.Set)
		}
	}
}

func TestSameFrequentSets(t *testing.T) {
	a := &Result{Frequent: []itemset.Counted{{Set: itemset.New(1, 2), Count: 3}}}
	b := &Result{Frequent: []itemset.Counted{{Set: itemset.New(1, 2), Count: 3}}}
	if ok, _ := SameFrequentSets(a, b); !ok {
		t.Fatal("identical results reported different")
	}
	b.Frequent[0].Count = 4
	if ok, _ := SameFrequentSets(a, b); ok {
		t.Fatal("count difference not detected")
	}
	b.Frequent[0].Count = 3
	b.Frequent = append(b.Frequent, itemset.Counted{Set: itemset.New(5), Count: 9})
	if ok, _ := SameFrequentSets(a, b); ok {
		t.Fatal("extra itemset not detected")
	}
	dup := &Result{Frequent: []itemset.Counted{
		{Set: itemset.New(1, 2), Count: 3},
		{Set: itemset.New(1, 2), Count: 3},
	}}
	if ok, diff := SameFrequentSets(dup, a); ok {
		t.Fatal("duplicates not detected")
	} else if diff == "" {
		t.Fatal("no diagnostic for duplicates")
	}
}

func TestMetricsMergeAndWork(t *testing.T) {
	a := NewMetrics("a")
	a.AddCandidates(2, 10)
	a.Work.Charge(100, CostScanItem)
	a.NoteCandidateBytes(500)
	a.Passes = 2

	b := NewMetrics("b")
	b.AddCandidates(2, 5)
	b.AddCandidates(3, 7)
	b.NoteCandidateBytes(300)
	b.Work.Charge(50, CostScanItem)
	b.Passes = 1

	a.Merge(&b)
	if a.CandidatesByK[2] != 15 || a.CandidatesByK[3] != 7 {
		t.Fatalf("merged candidates = %v", a.CandidatesByK)
	}
	if a.Candidates() != 22 {
		t.Fatalf("Candidates = %d", a.Candidates())
	}
	if a.PeakCandidateBytes != 500 { // max, not sum
		t.Fatalf("PeakCandidateBytes = %d", a.PeakCandidateBytes)
	}
	if a.Passes != 3 {
		t.Fatalf("Passes = %d", a.Passes)
	}
	if a.Work.Units != 150*CostScanItem {
		t.Fatalf("Work = %d", a.Work.Units)
	}
	if a.Work.Seconds() <= 0 {
		t.Fatal("Seconds not positive")
	}
}

func TestCandidateBytesMonotone(t *testing.T) {
	if CandidateBytes(2, 100) >= CandidateBytes(3, 100) {
		t.Fatal("bytes should grow with k")
	}
	if CandidateBytes(2, 100) >= CandidateBytes(2, 200) {
		t.Fatal("bytes should grow with n")
	}
}

func TestIsMemoryErr(t *testing.T) {
	if !IsMemoryErr(ErrMemoryExceeded) {
		t.Fatal("direct error not recognized")
	}
	if IsMemoryErr(nil) {
		t.Fatal("nil recognized")
	}
}

func TestPass2TreeCharge(t *testing.T) {
	if Pass2TreeCharge(1, 100) != 0 || Pass2TreeCharge(10, 0) != 0 {
		t.Fatal("degenerate inputs should cost nothing")
	}
	// Few paths, small candidate set: paths * 1 leaf entry.
	if got := Pass2TreeCharge(3, 10); got != 3 {
		t.Fatalf("Pass2TreeCharge(3,10) = %d", got)
	}
	// Paths capped at the leaf-bucket count.
	long := Pass2TreeCharge(100, 640)
	if long != int64(Pass2TreeFanout)*(640/int64(Pass2TreeFanout)+1) {
		t.Fatalf("capped charge = %d", long)
	}
	// The charge grows linearly with the candidate-set size — the effect
	// that sinks Apriori on text data.
	if Pass2TreeCharge(50, 1_000_000) <= Pass2TreeCharge(50, 10_000) {
		t.Fatal("leaf-scan cost not growing with candidates")
	}
}
