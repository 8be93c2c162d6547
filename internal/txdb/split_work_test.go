package txdb

import (
	"testing"
	"testing/quick"

	"pmihp/internal/itemset"
)

// lengthSkewed builds a corpus whose early days carry long documents and
// late days short ones — the straggler regime SplitByWork exists for: an
// equal-document-count split gives the first node several times the tokens
// of the last.
func lengthSkewed(docs, days int) *DB {
	txs := make([]Transaction, docs)
	for i := range txs {
		day := i * days / docs
		length := 3 + 5*(days-day)
		raw := make([]uint32, length)
		for j := range raw {
			raw[j] = uint32((i*7 + j*13 + 1) % 97)
		}
		txs[i] = Transaction{TID: TID(i), Day: day, Items: itemset.New(raw...)}
	}
	return New(txs, 100)
}

// workEstimate sums the splitter's per-transaction cost model, l + l(l-1)/2,
// over a part — the quantity SplitByWork equalizes.
func workEstimate(p *DB) int64 {
	var w int64
	for i := 0; i < p.Len(); i++ {
		l := int64(len(p.ItemsOf(i)))
		w += l + l*(l-1)/2
	}
	return w
}

func workSpread(parts []*DB) (min, max int64) {
	min, max = workEstimate(parts[0]), workEstimate(parts[0])
	for _, p := range parts[1:] {
		if n := workEstimate(p); n < min {
			min = n
		} else if n > max {
			max = n
		}
	}
	return min, max
}

func TestSplitByWorkPartition(t *testing.T) {
	db := lengthSkewed(200, 10)
	for _, n := range []int{2, 3, 4, 8} {
		checkPartition(t, db, db.SplitByWork(n), n)
	}
	if parts := db.SplitByWork(1); len(parts) != 1 || parts[0].Len() != db.Len() {
		t.Fatal("1-node work split wrong")
	}
}

// TestSplitByWorkTilesExactly pins the strongest form of the partition
// property: the parts are contiguous chronological views that tile the
// database — every transaction appears exactly once, in order, with its
// exact item list, and the token totals sum to the database's.
func TestSplitByWorkTilesExactly(t *testing.T) {
	db := lengthSkewed(157, 9)
	for _, n := range []int{2, 5, 8} {
		parts := db.SplitByWork(n)
		pos, tokens := 0, 0
		for _, p := range parts {
			tokens += p.TotalItems()
			for i := 0; i < p.Len(); i++ {
				if p.TIDOf(i) != db.TIDOf(pos) {
					t.Fatalf("n=%d: transaction %d is TID %d, database has %d",
						n, pos, p.TIDOf(i), db.TIDOf(pos))
				}
				if p.DayOf(i) != db.DayOf(pos) {
					t.Fatalf("n=%d: day mismatch at %d", n, pos)
				}
				if !p.ItemsOf(i).Equal(db.ItemsOf(pos)) {
					t.Fatalf("n=%d: item list mismatch at %d", n, pos)
				}
				pos++
			}
		}
		if pos != db.Len() || tokens != db.TotalItems() {
			t.Fatalf("n=%d: parts tile %d docs / %d tokens, database has %d / %d",
				n, pos, tokens, db.Len(), db.TotalItems())
		}
	}
}

// TestSplitByWorkBalancesWork: on a length-skewed corpus the work split
// must equalize the estimated counting work far better than the
// equal-document-count split — that is its reason to exist.
func TestSplitByWorkBalancesWork(t *testing.T) {
	db := lengthSkewed(240, 12)
	for _, n := range []int{4, 8} {
		cMin, cMax := workSpread(db.SplitChronological(n))
		wMin, wMax := workSpread(db.SplitByWork(n))
		cRatio := float64(cMax) / float64(cMin)
		wRatio := float64(wMax) / float64(wMin)
		if wRatio >= cRatio {
			t.Fatalf("n=%d: work split imbalance %.2f not below count split %.2f",
				n, wRatio, cRatio)
		}
	}

	// With a single day there are no boundaries to snap to, so the only
	// residual imbalance is one transaction of prefix-sum rounding.
	txs := make([]Transaction, 240)
	for i := range txs {
		length := 3 + 5*(12-i*12/240)
		raw := make([]uint32, length)
		for j := range raw {
			raw[j] = uint32((i*7 + j*13 + 1) % 97)
		}
		txs[i] = Transaction{TID: TID(i), Day: 0, Items: itemset.New(raw...)}
	}
	flat := New(txs, 100)
	for _, n := range []int{4, 8} {
		wMin, wMax := workSpread(flat.SplitByWork(n))
		if r := float64(wMax) / float64(wMin); r > 1.2 {
			t.Fatalf("n=%d: snap-free work split imbalance %.2f too high", n, r)
		}
	}
}

// workWeightsDF builds a df-weighted per-transaction work estimate for
// splitByWeight: each token contributes its document frequency, so a
// transaction full of corpus-frequent words — the ones that survive pass 1
// and spawn candidate pairs — weighs more than one of the same length made
// of hapaxes.
func workWeightsDF(d *DB) []int64 {
	df := d.ItemCounts()
	w := make([]int64, d.Len())
	for i := range w {
		var s int64
		for _, it := range d.ItemsOf(i) {
			s += int64(df[it])
		}
		w[i] = s
	}
	return w
}

func TestSplitByWeightDF(t *testing.T) {
	db := lengthSkewed(120, 8)
	w := workWeightsDF(db)
	if len(w) != db.Len() {
		t.Fatalf("workWeightsDF returned %d weights for %d transactions", len(w), db.Len())
	}
	for i, v := range w {
		if v <= 0 {
			t.Fatalf("weight %d at %d: every transaction has items with df >= 1", v, i)
		}
	}
	parts := db.splitByWeight(4, func(i int) int64 { return w[i] })
	checkPartition(t, db, parts, 4)
}

func TestSplitByWeightNegativePanics(t *testing.T) {
	db := lengthSkewed(20, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	db.splitByWeight(2, func(i int) int64 { return -1 })
}

func TestSplitByWeightBadNodesPanics(t *testing.T) {
	db := lengthSkewed(20, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("splitByWeight(0) did not panic")
		}
	}()
	db.splitByWeight(0, func(i int) int64 { return 1 })
}

// TestSplitByWorkPropertyQuick drives SplitByWork with randomized database
// shapes and checks the partition invariants (cover, disjoint, non-empty,
// ordered, exact token tiling) under testing/quick — including degenerate
// weight distributions where a handful of transactions carry all the work.
func TestSplitByWorkPropertyQuick(t *testing.T) {
	f := func(docsRaw, daysRaw, nRaw, itemsRaw uint8) bool {
		docs := 8 + int(docsRaw)%200
		days := 1 + int(daysRaw)%20
		n := 1 + int(nRaw)%8
		if n > docs {
			n = docs
		}
		numItems := 10 + int(itemsRaw)%100
		db := build(docs, days, numItems)
		for _, split := range []func(int) []*DB{
			db.SplitByWork,
			func(n int) []*DB {
				// Spiky weights: every 5th transaction carries all the work.
				return db.splitByWeight(n, func(i int) int64 {
					if i%5 == 0 {
						return 100
					}
					return 0
				})
			},
		} {
			parts := split(n)
			if len(parts) != n {
				return false
			}
			seen := map[TID]bool{}
			total, tokens := 0, 0
			for _, p := range parts {
				if p.Len() == 0 {
					return false
				}
				total += p.Len()
				tokens += p.TotalItems()
				ok := true
				last := -1
				p.Each(func(tx *Transaction) {
					if seen[tx.TID] || int(tx.TID) <= last {
						ok = false
					}
					seen[tx.TID] = true
					last = int(tx.TID)
				})
				if !ok {
					return false
				}
			}
			if total != docs || tokens != db.TotalItems() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
