package hashtree

import (
	"math/rand"
	"testing"

	"pmihp/internal/itemset"
)

// randItemset draws a sorted k-itemset over [0, universe).
func randItemset(rng *rand.Rand, k, universe int) itemset.Itemset {
	m := make(map[itemset.Item]struct{})
	for len(m) < k {
		m[itemset.Item(rng.Intn(universe))] = struct{}{}
	}
	items := make([]itemset.Item, 0, k)
	for it := range m {
		items = append(items, it)
	}
	return itemset.New(items...)
}

// TestCountMatchesBruteForce cross-checks hash-tree counting against direct
// subset tests across many random candidate sets and transactions, with a
// small universe so hash collisions are frequent (the regime where a
// suffix-only leaf check miscounts).
func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(4)
		universe := 12 + rng.Intn(30)
		nCands := 1 + rng.Intn(120)

		seen := itemset.NewSet()
		var cands []itemset.Itemset
		for len(cands) < nCands {
			c := randItemset(rng, k, universe)
			if !seen.Has(c) {
				seen.Add(c)
				cands = append(cands, c)
			}
		}
		tree := Build(k, cands)
		want := make([]int, len(cands))
		for tx := 0; tx < 60; tx++ {
			txLen := k + rng.Intn(universe-k)
			items := randItemset(rng, txLen, universe)
			got := make(map[int]int)
			tree.VisitTx(items, func(c int) { got[c]++ })
			for ci, c := range cands {
				contained := c.SubsetOf(items)
				switch {
				case contained && got[ci] != 1:
					t.Fatalf("trial %d: candidate %v in tx %v visited %d times",
						trial, c, items, got[ci])
				case !contained && got[ci] != 0:
					t.Fatalf("trial %d: candidate %v not in tx %v but visited",
						trial, c, items)
				}
				if contained {
					want[ci]++
				}
			}
			tree.CountTx(items)
		}
		for ci := range cands {
			if tree.Count(ci) != want[ci] {
				t.Fatalf("trial %d: candidate %v count %d, want %d",
					trial, cands[ci], tree.Count(ci), want[ci])
			}
		}
	}
}

func TestShortTransactionSkipped(t *testing.T) {
	cands := []itemset.Itemset{itemset.New(1, 2, 3)}
	tree := Build(3, cands)
	if n := tree.CountTx(itemset.New(1, 2)); n != 0 {
		t.Fatalf("short transaction matched %d candidates", n)
	}
}

func TestFrequentThreshold(t *testing.T) {
	cands := []itemset.Itemset{itemset.New(1, 2), itemset.New(2, 3)}
	tree := Build(2, cands)
	tree.CountTx(itemset.New(1, 2, 3)) // both
	tree.CountTx(itemset.New(1, 2))    // only {1,2}
	freq := tree.Frequent(2)
	if len(freq) != 1 || !freq[0].Set.Equal(itemset.New(1, 2)) || freq[0].Count != 2 {
		t.Fatalf("Frequent(2) = %v", freq)
	}
}

// SetCounts overwrites the count slice. The argument must have one entry
// per candidate.
func (t *Tree) SetCounts(counts []int) {
	if len(counts) != t.n {
		panic("hashtree: SetCounts length mismatch")
	}
	copy(t.counts, counts)
}

func TestSetCounts(t *testing.T) {
	cands := []itemset.Itemset{itemset.New(1, 2), itemset.New(2, 3)}
	tree := Build(2, cands)
	tree.SetCounts([]int{5, 7})
	if tree.Count(0) != 5 || tree.Count(1) != 7 {
		t.Fatalf("SetCounts not applied: %v", tree.Counts())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCounts with wrong length did not panic")
		}
	}()
	tree.SetCounts([]int{1})
}

func TestDeepSplitLargeLeafAtMaxDepth(t *testing.T) {
	// Force many candidates sharing a full hash path so leaves at depth k
	// exceed LeafCap and must not split further.
	var cands []itemset.Itemset
	for i := 0; i < LeafCap*3; i++ {
		cands = append(cands, itemset.New(
			itemset.Item(8*i), itemset.Item(8*i+1), // hashes 0 and 1 for all
		))
	}
	tree := Build(2, cands)
	tx := itemset.New(16, 17)
	n := tree.CountTx(tx)
	if n != 1 {
		t.Fatalf("expected exactly 1 match, got %d", n)
	}
	if tree.Count(2) != 1 {
		t.Fatalf("candidate {16,17} count = %d", tree.Count(2))
	}
}

func TestWalkCostAccounting(t *testing.T) {
	smallCands := []itemset.Itemset{itemset.New(1, 2), itemset.New(3, 4)}
	small := Build(2, smallCands)
	var bigCands []itemset.Itemset
	for i := 0; i < 400; i++ {
		bigCands = append(bigCands, itemset.New(itemset.Item(2*i), itemset.Item(2*i+1)))
	}
	big := Build(2, bigCands)

	tx := itemset.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	small.CountTx(tx)
	big.CountTx(tx)
	if small.WalkCost() <= 0 {
		t.Fatal("walk cost not accumulated")
	}
	// A bigger candidate structure must cost more to scan per transaction —
	// the structural effect the cost model depends on.
	if big.WalkCost() <= small.WalkCost() {
		t.Fatalf("walk costs: big %d <= small %d", big.WalkCost(), small.WalkCost())
	}
	// Cost accumulates across transactions.
	before := big.WalkCost()
	big.CountTx(tx)
	if big.WalkCost() <= before {
		t.Fatal("walk cost did not accumulate")
	}
}
