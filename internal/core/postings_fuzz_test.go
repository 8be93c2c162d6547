package core

import (
	"math"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// dbFromBytes derives a small transaction database from raw fuzz input:
// each byte contributes one item, a zero byte terminates the current
// transaction. The decoded shape exercises empty transactions, singleton
// and stopword-grade lists, and — because TIDs are consecutive — dense
// delta runs in the varint blocks.
func dbFromBytes(data []byte) *txdb.DB {
	const numItems = 48
	var txs []txdb.Transaction
	var raw []uint32
	flush := func() {
		txs = append(txs, txdb.Transaction{
			TID: txdb.TID(len(txs)), Items: itemset.New(raw...),
		})
		raw = raw[:0]
	}
	for _, b := range data {
		if b == 0 {
			flush()
			continue
		}
		raw = append(raw, uint32(b)%numItems)
	}
	flush()
	return txdb.New(txs, numItems)
}

// fuzzThresholds are the density thresholds the fuzz and equivalence tests
// sweep: every list compressed, the default hybrid mix, a mid cut that mixes
// representations aggressively, and every list a bitmap.
var fuzzThresholds = []float64{math.Inf(1), 0, 0.25, denseThresholdAll}

// FuzzPostingsRoundTrip: for any database shape and any density threshold,
// the hybrid encoding (delta-varint blocks below the cutoff, bitmaps at or
// above it) must decode back to exactly the TIDs of the transactions
// containing each item; every intersection kernel — block×block
// (intersectItem), bitmap×block (intersectBits), bitmap×bitmap (via count's
// all-dense chain) — must agree with the uncompressed reference
// intersectInto; and count must charge identically under every layout.
func FuzzPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0, 2, 3, 4, 0, 1, 4})
	f.Add([]byte{7, 7, 7, 0, 0, 0, 7})
	// A long corpus: every transaction shares item 1, so its posting list
	// spans multiple 128-TID blocks (and turns dense under the default
	// threshold).
	long := make([]byte, 0, 4*400)
	for i := 0; i < 400; i++ {
		long = append(long, 1, byte(2+i%37), byte(3+i%11), 0)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		db := dbFromBytes(data)
		want := make([][]txdb.TID, db.NumItems())
		for i := 0; i < db.Len(); i++ {
			for _, it := range db.ItemsOf(i) {
				want[it] = append(want[it], db.TIDOf(i))
			}
		}

		for _, threshold := range fuzzThresholds {
			m := mining.NewMetrics("fuzz")
			p := buildPostings(db, &m, 1, threshold)
			for it := range want {
				got := p.row(itemset.Item(it))
				if !equalTIDs(got, want[it]) {
					t.Fatalf("threshold %v item %d: decoded %v, want %v", threshold, it, got, want[it])
				}
			}

			for it := 0; it+1 < db.NumItems(); it++ {
				a, b := itemset.Item(it), itemset.Item(it+1)
				rowA, rowB := p.row(a), p.row(b)
				if len(rowA) == 0 || len(rowB) == 0 {
					continue
				}
				short, lng := rowA, rowB
				if len(short) > len(lng) {
					short, lng = lng, short
				}
				wantAB := intersectInto(nil, short, lng)

				// Kernel dispatch mirrors countScratch: a bitmap-backed item
				// intersects via intersectBits, a block-backed one via
				// intersectItem. Both orientations must agree with the
				// reference.
				for _, o := range [][2]itemset.Item{{a, b}, {b, a}} {
					acc := p.row(o[0])
					var got []txdb.TID
					if s := p.denseSlot(o[1]); s >= 0 {
						got = p.intersectBits(nil, acc, s)
					} else {
						got = p.intersectItem(nil, acc, o[1], &p.scratch.blockBuf)
					}
					if !equalTIDs(got, wantAB) {
						t.Fatalf("threshold %v intersect(%d,%d): %v, want %v", threshold, o[0], o[1], got, wantAB)
					}
				}

				// count exercises the all-dense (bitmap×bitmap) chain when
				// both items are dense; its result must not depend on the
				// layout.
				if got := p.count(itemset.Itemset{a, b}, &m); got != len(wantAB) {
					t.Fatalf("threshold %v count(%d,%d) = %d, want %d", threshold, a, b, got, len(wantAB))
				}
			}
		}
		// Charge identity across layouts: every adjacent pair must cost the
		// same simulated work under every threshold.
		charges := make([][]int64, len(fuzzThresholds))
		for ti, threshold := range fuzzThresholds {
			m := mining.NewMetrics("fuzz")
			p := buildPostings(db, &m, 1, threshold)
			for it := 0; it+1 < db.NumItems(); it++ {
				a, b := itemset.Item(it), itemset.Item(it+1)
				before := m.Work.Units
				p.count(itemset.Itemset{a, b}, &m)
				charges[ti] = append(charges[ti], m.Work.Units-before)
			}
		}
		for ti := 1; ti < len(charges); ti++ {
			for i := range charges[0] {
				if charges[ti][i] != charges[0][i] {
					t.Fatalf("threshold %v pair %d: charged %d, layout %v charges %d",
						fuzzThresholds[ti], i, charges[ti][i], fuzzThresholds[0], charges[0][i])
				}
			}
		}
	})
}

func equalTIDs(a, b []txdb.TID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
