package core

import (
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
// slot to many. When saturate is set, item 0 occurs in every transaction
// and there are at least entries of them, so its row occupies every slot.
func skewedDB(rng *rand.Rand, entries, numItems int, saturate bool) *txdb.DB {
	n := 1 + rng.Intn(2*entries+20)
	if saturate && n < entries {
		n = entries + rng.Intn(8)
	}
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

// saturatedRows counts the items whose THT row, built from db over
// entries slots, occupies every slot. A transaction with TID t lands in
// slot t mod entries.
func saturatedRows(db *txdb.DB, entries int, items []itemset.Item) int {
	n := 0
	for _, it := range items {
		occ := make(map[int]bool)
		for i := 0; i < db.Len(); i++ {
			if db.ItemsOf(i).Contains(it) {
				occ[int(db.TIDOf(i))%entries] = true
			}
		}
		if len(occ) == entries {
			n++
		}
	}
	return n
}

// TestPairGenMatchesPerPairLoop: the slot-index generation keeps exactly
// the keys of the per-pair loop, in its order, and charges exactly its
// considered pairs, THT slots and THT prunes, for segment widths 1–130
// (one-word masks through three-word ones, across the 64-slot boundary),
// 1–8 segments, saturated outer rows and local thresholds 1–3.
func TestPairGenMatchesPerPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	saturatedOuter, wideDisjoint := 0, 0
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
		dbs := make([]*txdb.DB, nseg)
		for p := range segs {
			dbs[p] = skewedDB(rng, entries, numItems, saturate)
			segs[p] = tht.Build(dbs[p], entries, dbs[p].ItemCounts(), freqArr)
		}
		g := tht.NewGlobal(segs)
		for self := 0; self < nseg; self++ {
			minLocal := 1 + rng.Intn(3)
			lm := &localMiner{
				global:    g,
				self:      self,
				minLocal:  minLocal,
				minPrune:  minLocal + rng.Intn(4),
				freqItems: freq,
			}
			lm.preparePairs(numItems)
			present := make([]itemset.Item, len(lm.selfPresent))
			for i, pos := range lm.selfPresent {
				present[i] = freq[pos]
			}
			saturatedOuter += saturatedRows(dbs[self], entries, present)
			got := &genShard{scan: lm.pairScan.Fork()}
			want := &genShard{scan: lm.pairScan.Fork()}
			for _, a := range freq {
				lm.genOuter(got, a)
				perPairGenOuter(lm, want, a)
			}
			if entries > 64 {
				// Pairs whose masks are disjoint: the ones genOuter charges
				// by arithmetic, at this width's several mask words each.
				ps := lm.pairScan.Fork()
				for i, aPos := range lm.selfPresent {
					ps.Hoist(int(aPos))
					for _, bPos := range lm.selfPresent[i+1:] {
						if ok, _ := ps.Seg(self).BoundReaches(int(bPos), 1); !ok {
							wideDisjoint++
						}
					}
				}
			}
			if !slices.Equal(got.keys, want.keys) {
				t.Fatalf("entries=%d segments=%d self=%d minLocal=%d: keys %v, per-pair loop %v",
					entries, nseg, self, minLocal, got.keys, want.keys)
			}
			if got.pairsConsidered != want.pairsConsidered || got.slotsTotal != want.slotsTotal || got.prunedTHT != want.prunedTHT {
				t.Fatalf("entries=%d segments=%d self=%d minLocal=%d: charged %d pairs, %d slots, %d THT prunes; per-pair loop %d, %d, %d",
					entries, nseg, self, minLocal, got.pairsConsidered, got.slotsTotal, got.prunedTHT,
					want.pairsConsidered, want.slotsTotal, want.prunedTHT)
			}
		}
	}
	if saturatedOuter == 0 || wideDisjoint == 0 {
		t.Fatalf("sweep exercised %d saturated outer rows and %d disjoint multi-word pairs; want both", saturatedOuter, wideDisjoint)
	}
}
