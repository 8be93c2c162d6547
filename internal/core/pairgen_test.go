package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// perPairGenOuter is the reference pass-2 generation for outer item a: the
// per-pair loop that genOuter replaces. It runs the self-segment bound on
// every locally present partner above a, then the cascaded bound on the
// pairs that pass, charging each pair as it goes.
func perPairGenOuter(lm *localMiner, g *genShard, a itemset.Item) {
	ps := g.scan
	aPos := int(lm.posOf[a])
	if !ps.Present(lm.self, aPos) {
		return
	}
	ps.Hoist(aPos)
	ss := ps.Seg(lm.self)
	lo, hi := 0, len(lm.selfPresent)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(lm.selfPresent[mid]) <= aPos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	cascade := lm.global.NumSegments() > 1
	for _, p32 := range lm.selfPresent[lo:] {
		bPos := int(p32)
		b := lm.freqItems[bPos]
		g.pairsConsidered++
		ok, slots := ss.BoundReaches(bPos, lm.minLocal)
		g.slotsTotal += int64(slots)
		if ok && cascade {
			var gslots int
			ok, gslots = ps.BoundReaches(bPos, lm.minPrune)
			g.slotsTotal += int64(gslots)
		}
		if !ok {
			g.prunedTHT++
			continue
		}
		g.keys = append(g.keys, mining.PairKey(a, b))
	}
}

// skewedDB draws a random database over numItems items whose low ids are
// far more frequent than its high ones, so rows range from one occupied
// slot to many. It holds two to five times as many transactions as
// entries, so counters exceed 1. When saturate is set, item 0 occurs in
// every transaction, so its row occupies every slot.
func skewedDB(rng *rand.Rand, entries, numItems int, saturate bool) *txdb.DB {
	n := entries*(2+rng.Intn(4)) + rng.Intn(20)
	txs := make([]txdb.Transaction, n)
	for i := range txs {
		var raw []uint32
		if saturate {
			raw = append(raw, 0)
		}
		for k := rng.Intn(6); k >= 0; k-- {
			u := rng.Float64()
			raw = append(raw, uint32(u*u*float64(numItems)))
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(raw...)}
	}
	return txdb.New(txs, numItems)
}

// slotCounts returns every item's THT row over entries slots, counted
// from db directly: a transaction with TID t lands in slot t mod entries.
func slotCounts(db *txdb.DB, entries int) [][]int {
	rows := make([][]int, db.NumItems())
	for it := range rows {
		rows[it] = make([]int, entries)
	}
	for i := 0; i < db.Len(); i++ {
		for _, it := range db.ItemsOf(i) {
			rows[it][int(db.TIDOf(i))%entries]++
		}
	}
	return rows
}

// pairBound is the pair's bound over one segment's rows — the sum of the
// slot minima — and the number of slots both rows occupy.
func pairBound(a, b []int) (sum, shared int) {
	for j := range a {
		if m := min(a[j], b[j]); m > 0 {
			sum += m
			shared++
		}
	}
	return sum, shared
}

// TestPairGenMatchesPerPairLoop: both pass-2 generation paths, the sweep
// over slot postings and the per-pair loop, keep exactly the keys of the
// reference per-pair loop, in its order, and charge exactly its
// considered pairs, THT slots and THT prunes. Each path is called
// directly, whatever the gate would pick. The sweep covers segment widths
// 1–130 (one-word masks through three-word ones, across the 64-slot
// boundary), 1–8 segments, local thresholds 1–6 and cascade thresholds up
// to 40, over databases with several transactions per slot. It must meet
// pairs that reach the cascade threshold only through peers' segments and
// pairs that reach it within the self segment, self bounds that reach the
// local threshold part-way through their shared slots, pairs of saturated
// rows, and disjoint pairs of multi-word masks.
func TestPairGenMatchesPerPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var peersOnly, withinSelf, partway, saturatedPairs, wideDisjoint int
	for entries := 1; entries <= 130; entries++ {
		nseg := 1 + rng.Intn(8)
		numItems := 20 + rng.Intn(80)
		saturate := rng.Intn(2) == 0
		segs := make([]*tht.Local, nseg)
		freqArr := make([]bool, numItems)
		var freq []itemset.Item
		for it := 0; it < numItems; it++ {
			if rng.Intn(5) > 0 {
				freqArr[it] = true
				freq = append(freq, itemset.Item(it))
			}
		}
		if saturate {
			freqArr[0] = true
			if len(freq) == 0 || freq[0] != 0 {
				freq = append([]itemset.Item{0}, freq...)
			}
		}
		counts := make([][][]int, nseg)
		for p := range segs {
			db := skewedDB(rng, entries, numItems, saturate)
			segs[p] = tht.Build(db, entries, db.ItemCounts(), freqArr)
			counts[p] = slotCounts(db, entries)
		}
		g := tht.NewGlobal(segs)
		for self := 0; self < nseg; self++ {
			minLocal := 1 + rng.Intn(6)
			lm := &localMiner{
				global:    g,
				self:      self,
				minLocal:  minLocal,
				minPrune:  minLocal + rng.Intn(35),
				freqItems: freq,
			}
			lm.preparePairs(numItems)
			sweep := lm.pairScan.NewSlotPostings(lm.selfPresent, math.MaxInt64)
			want := &genShard{scan: lm.pairScan.Fork()}
			for _, a := range freq {
				perPairGenOuter(lm, want, a)
			}
			for _, path := range []struct {
				name     string
				postings *tht.SlotPostings
			}{{"sweep", sweep}, {"per-pair", nil}} {
				lm.postings = path.postings
				got := lm.newGenShard()
				for _, a := range freq {
					lm.genOuter(got, a)
				}
				if !slices.Equal(got.keys, want.keys) {
					t.Fatalf("%s, entries=%d segments=%d self=%d minLocal=%d minPrune=%d: keys %v, per-pair loop %v",
						path.name, entries, nseg, self, minLocal, lm.minPrune, got.keys, want.keys)
				}
				if got.pairsConsidered != want.pairsConsidered || got.slotsTotal != want.slotsTotal || got.prunedTHT != want.prunedTHT {
					t.Fatalf("%s, entries=%d segments=%d self=%d minLocal=%d minPrune=%d: charged %d pairs, %d slots, %d THT prunes; per-pair loop %d, %d, %d",
						path.name, entries, nseg, self, minLocal, lm.minPrune, got.pairsConsidered, got.slotsTotal, got.prunedTHT,
						want.pairsConsidered, want.slotsTotal, want.prunedTHT)
				}
			}

			// Tally the cases the comparison met.
			for i, aPos := range lm.selfPresent {
				a := freq[aPos]
				for _, bPos := range lm.selfPresent[i+1:] {
					b := freq[bPos]
					selfSum, selfSlots := pairBound(counts[self][a], counts[self][b])
					if selfSlots > 0 && selfSlots < minLocal && selfSum >= minLocal {
						partway++
					}
					if selfSlots == entries && entries > 1 {
						saturatedPairs++
					}
					if selfSlots == 0 && entries > 64 {
						wideDisjoint++
					}
					if selfSum < minLocal || nseg == 1 {
						continue
					}
					total := 0
					for p := range counts {
						sum, _ := pairBound(counts[p][a], counts[p][b])
						total += sum
					}
					switch {
					case selfSum >= lm.minPrune:
						withinSelf++
					case total >= lm.minPrune:
						peersOnly++
					}
				}
			}
		}
	}
	t.Logf("pairs reaching the cascade threshold through peers %d, within self %d; self bounds reached part-way %d; saturated pairs %d; disjoint multi-word pairs %d",
		peersOnly, withinSelf, partway, saturatedPairs, wideDisjoint)
	if peersOnly == 0 || withinSelf == 0 || partway == 0 || saturatedPairs == 0 || wideDisjoint == 0 {
		t.Fatal("the sweep missed a case")
	}
}

// sweepSteps is the number of entry pairs that share a slot list in lm's
// slot postings — the steps of sweeping every present item — built
// whatever the gate picked.
func sweepSteps(lm *localMiner) int64 {
	x := lm.pairScan.NewSlotPostings(lm.selfPresent, math.MaxInt64)
	steps := int64(0)
	for p := 0; p < lm.global.NumSegments(); p++ {
		for i := range lm.selfPresent {
			for _, t := range x.Tails(p, i, nil) {
				_, above := x.Above(t)
				steps += int64(len(above))
			}
		}
	}
	return steps
}

// TestPairGenGate: the gate sweeps a sparse table, whose rows occupy few
// of many slots, and probes pair by pair on a saturated one, whose rows
// all occupy all of few slots.
func TestPairGenGate(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		entries, docs, numItems int
		sweep                   bool
	}{
		{"sparse", 400, 60, 300, true},
		{"saturated", 16, 400, 20, false},
	} {
		rng := rand.New(rand.NewSource(int64(tc.entries)))
		txs := make([]txdb.Transaction, tc.docs)
		for i := range txs {
			raw := make([]uint32, 12)
			for k := range raw {
				raw[k] = uint32(rng.Intn(tc.numItems))
			}
			txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(raw...)}
		}
		db := txdb.New(txs, tc.numItems)
		counts := db.ItemCounts()
		freq, f1 := mining.FrequentItems(counts, 1)
		lm := &localMiner{
			global:    tht.NewGlobal([]*tht.Local{tht.Build(db, tc.entries, counts, freq)}),
			minLocal:  1,
			minPrune:  1,
			freqItems: f1,
		}
		lm.preparePairs(tc.numItems)
		if got := lm.postings != nil; got != tc.sweep {
			n := float64(len(lm.selfPresent))
			t.Fatalf("%s: gate swept %v, want %v (%.2f steps per partner pair)",
				tc.name, got, tc.sweep, float64(sweepSteps(lm))/(n*(n-1)/2))
		}
	}
}
