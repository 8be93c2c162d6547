package txdb

import (
	"testing"

	"pmihp/internal/itemset"
)

// build constructs a DB of docs transactions with the given day spans and a
// simple deterministic item pattern.
func build(docs, days, numItems int) *DB {
	txs := make([]Transaction, docs)
	for i := range txs {
		day := 0
		if docs > 0 && days > 0 {
			day = i * days / docs
		}
		items := itemset.New(
			itemset.Item(i%numItems),
			itemset.Item((i*7+1)%numItems),
			itemset.Item((i*13+2)%numItems),
		)
		txs[i] = Transaction{TID: TID(i), Day: day, Items: items}
	}
	return New(txs, numItems)
}

func TestMinSupCount(t *testing.T) {
	db := build(200, 8, 50)
	cases := []struct {
		frac float64
		want int
	}{
		{0.05, 10},
		{0.02, 4},
		{0.001, 1}, // clamps to 1
		{0.015, 3},
	}
	for _, c := range cases {
		if got := db.MinSupCount(c.frac); got != c.want {
			t.Errorf("MinSupCount(%g) = %d, want %d", c.frac, got, c.want)
		}
	}
}

func TestItemCountsAndFrequentItems(t *testing.T) {
	txs := []Transaction{
		{TID: 0, Items: itemset.New(1, 2)},
		{TID: 1, Items: itemset.New(1, 3)},
		{TID: 2, Items: itemset.New(1, 2, 3)},
	}
	db := New(txs, 5)
	counts := db.ItemCounts()
	want := []int{0, 3, 2, 2, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	freq := db.FrequentItems(2)
	if len(freq) != 3 || freq[0] != 1 || freq[1] != 2 || freq[2] != 3 {
		t.Fatalf("FrequentItems(2) = %v", freq)
	}
}

func TestSplitChronologicalPartsCoverAll(t *testing.T) {
	for _, docs := range []int{8, 99, 100, 1427} {
		for _, n := range []int{1, 2, 3, 4, 8} {
			if n > docs {
				continue
			}
			db := build(docs, 8, 40)
			parts := db.SplitChronological(n)
			if len(parts) != n {
				t.Fatalf("docs=%d n=%d: got %d parts", docs, n, len(parts))
			}
			total := 0
			for _, p := range parts {
				if p.Len() == 0 {
					t.Fatalf("docs=%d n=%d: empty part", docs, n)
				}
				total += p.Len()
			}
			if total != docs {
				t.Fatalf("docs=%d n=%d: parts cover %d", docs, n, total)
			}
			// Chronological: TIDs strictly increasing across concatenation.
			last := -1
			for _, p := range parts {
				p.Each(func(tx *Transaction) {
					if int(tx.TID) <= last {
						t.Fatalf("docs=%d n=%d: TID order broken", docs, n)
					}
					last = int(tx.TID)
				})
			}
		}
	}
}

// TestSplitFewerTransactionsThanParts: both splits of a database with
// fewer transactions than parts return n ordered parts that tile it, the
// leading ones empty, instead of slicing out of range.
func TestSplitFewerTransactionsThanParts(t *testing.T) {
	for docs := 0; docs < 4; docs++ {
		db := build(docs, 2, 10)
		for _, n := range []int{2, 3, 5, 8} {
			for name, parts := range map[string][]*DB{
				"chronological": db.SplitChronological(n),
				"by-work":       db.SplitByWork(n),
			} {
				if len(parts) != n {
					t.Fatalf("%s docs=%d n=%d: %d parts", name, docs, n, len(parts))
				}
				next := 0
				for _, p := range parts {
					for i := 0; i < p.Len(); i++ {
						if int(p.TIDOf(i)) != next {
							t.Fatalf("%s docs=%d n=%d: TID %d, want %d", name, docs, n, p.TIDOf(i), next)
						}
						next++
					}
				}
				if next != docs {
					t.Fatalf("%s docs=%d n=%d: parts cover %d transactions", name, docs, n, next)
				}
			}
		}
	}
}

func TestSplitChronologicalBalance(t *testing.T) {
	db := build(1427, 8, 60) // the paper's corpus B shape
	parts := db.SplitChronological(8)
	for _, p := range parts {
		if p.Len() < 1427/8-1427/16 || p.Len() > 1427/8+1427/16 {
			t.Fatalf("unbalanced part: %d docs", p.Len())
		}
	}
}

func TestSplitNoDayStructure(t *testing.T) {
	db := build(100, 1, 40) // every transaction on day 0
	parts := db.SplitChronological(4)
	for _, p := range parts {
		if p.Len() != 25 {
			t.Fatalf("day-free split uneven: %d", p.Len())
		}
	}
}

func TestSplitPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	build(10, 2, 5).SplitChronological(0)
}

func TestComputeStats(t *testing.T) {
	txs := []Transaction{
		{TID: 0, Day: 0, Items: itemset.New(1, 2)},
		{TID: 1, Day: 0, Items: itemset.New(2, 3, 4)},
		{TID: 3, Day: 1, Items: itemset.New(2)},
	}
	db := New(txs, 6)
	st := db.ComputeStats()
	if st.Docs != 3 || st.Days != 2 || st.UniqueItems != 4 || st.TotalItems != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// Item 2 is in every document, over TIDs 0..3.
	if st.MaxDF != 3 || st.TIDSpan != 4 || st.MaxDensity != 0.75 {
		t.Fatalf("density profile: MaxDF=%d TIDSpan=%d MaxDensity=%g, want 3/4/0.75",
			st.MaxDF, st.TIDSpan, st.MaxDensity)
	}
	if st.MeanLen != 2.0 {
		t.Fatalf("MeanLen = %g", st.MeanLen)
	}
	if st.MedianDocsDay != 1.5 {
		t.Fatalf("MedianDocsDay = %g", st.MedianDocsDay)
	}
}

// live counts the still-active transactions of w.
func live(w *Work) int {
	n := 0
	for _, a := range w.active {
		if a {
			n++
		}
	}
	return n
}

func TestWorkTrimAndPrune(t *testing.T) {
	db := build(10, 2, 30)
	w := NewWork(db)
	if live(w) != 10 || w.Len() != 10 {
		t.Fatalf("Live/Len = %d/%d", live(w), w.Len())
	}
	before := w.TotalItems()

	w.EachIndexed(func(i int, _ TID, items itemset.Itemset) {
		if i%2 == 0 {
			w.Prune(i)
		} else {
			w.Trim(i, items[:1])
		}
	})
	if live(w) != 5 {
		t.Fatalf("Live after prune = %d", live(w))
	}
	if w.TotalItems() != 5 {
		t.Fatalf("TotalItems after trim = %d (before %d)", w.TotalItems(), before)
	}
	seen := 0
	w.Each(func(_ TID, items itemset.Itemset) {
		seen++
		if len(items) != 1 {
			t.Fatalf("trimmed tx has %d items", len(items))
		}
	})
	if seen != 5 {
		t.Fatalf("Each visited %d", seen)
	}
	// Double prune is idempotent.
	w.EachIndexed(func(i int, _ TID, _ itemset.Itemset) { w.Prune(i); w.Prune(i) })
	if live(w) != 0 {
		t.Fatalf("Live after full prune = %d", live(w))
	}
	// The source database is untouched.
	if got := db.ComputeStats().TotalItems; got != before {
		t.Fatalf("source db mutated: %d != %d", got, before)
	}
}
