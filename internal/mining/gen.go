package mining

import "pmihp/internal/itemset"

// FrequentItems is the F1 selection of every miner: from per-item
// supports it returns the membership array of the items that reach
// minCount and those items in ascending order.
func FrequentItems(counts []int, minCount int) (freq []bool, f1 []itemset.Item) {
	freq = make([]bool, len(counts))
	for it, c := range counts {
		if c >= minCount {
			freq[it] = true
			f1 = append(f1, itemset.Item(it))
		}
	}
	return freq, f1
}

// CountedItems returns the frequent items f1 as counted 1-itemsets, the
// entries a result's frequent list starts from. The sets are
// capacity-capped views of f1, one backing array for all of them, so f1
// must not change afterwards.
func CountedItems(f1 []itemset.Item, counts []int) []itemset.Counted {
	out := make([]itemset.Counted, len(f1))
	for i, it := range f1 {
		out[i] = itemset.Counted{Set: f1[i : i+1 : i+1], Count: counts[it]}
	}
	return out
}

// GenNext is the candidate step of the level-wise Apriori miners: the
// candidate k-itemsets joined from the sorted frequent (k-1)-itemsets
// prev, through Gen3's packed-pair path at k = 3 and AprioriGen above
// it. potential and pruned are as AprioriGen's.
func GenNext(prev []itemset.Itemset) (cands []itemset.Itemset, potential, pruned int) {
	if len(prev) > 0 && len(prev[0]) == 2 {
		return Gen3(prev, PairTableOf(prev))
	}
	return AprioriGen(prev, itemset.SetOf(prev...))
}

// AprioriGen implements candidate generation shared by Apriori, Count
// Distribution, DHP and MIHP: the prefix self-join of the frequent
// (k-1)-itemsets followed by subset-infrequency pruning (every (k-1)-subset
// of a surviving candidate must be in prevSet).
//
// prev must be sorted lexicographically (itemset.Sort order); prevSet must
// contain at least the itemsets of prev (MIHP passes the accumulated F_{k-1}
// across partitions, which is a superset). It returns the surviving
// candidates in lexicographic order, the number of potential candidates the
// join produced, and the number removed by subset pruning.
func AprioriGen(prev []itemset.Itemset, prevSet *itemset.Set) (cands []itemset.Itemset, potential, pruned int) {
	if len(prev) == 0 {
		return nil, 0, 0
	}
	k := len(prev[0]) + 1
	subBuf := make(itemset.Itemset, k-1)
	candBuf := make(itemset.Itemset, k)
	var arena Arena
	// Joinable itemsets share their first k-2 items and are adjacent in
	// lexicographic order, so scan prefix groups.
	for lo := 0; lo < len(prev); {
		hi := lo + 1
		for hi < len(prev) && samePrefix(prev[lo], prev[hi]) {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				// prev is sorted, so within a prefix group the final items
				// are distinct and ascending: the join is the shared prefix
				// plus both final items in order.
				copy(candBuf, prev[i])
				candBuf[k-1] = prev[j][k-2]
				potential++
				if hasAllSubsetsBuf(candBuf, prevSet, subBuf) {
					c := arena.Alloc(k)
					copy(c, candBuf)
					cands = append(cands, c)
				} else {
					pruned++
				}
			}
		}
		lo = hi
	}
	return cands, potential, pruned
}

// PairTableOf packs the given 2-itemsets into a PairTable, the membership
// structure behind the k=3 join.
func PairTableOf(prev []itemset.Itemset) *PairTable {
	t := NewPairTable(len(prev))
	for _, p := range prev {
		t.AddPair(p[0], p[1])
	}
	return t
}

// Gen3 is AprioriGen specialized to k=3: prev holds frequent 2-itemsets in
// lexicographic order, all2 the membership table of every frequent
// 2-itemset usable for subset pruning (a superset of prev for MIHP, where
// pairs from already-processed partitions participate). It avoids the
// generic path's string-key subset checks — and, via the flat PairTable
// and arena-backed candidates, Go-map probe and per-candidate allocation
// overhead — which dominate real runtime at text-database F2 sizes.
func Gen3(prev []itemset.Itemset, all2 *PairTable) (cands []itemset.Itemset, potential, pruned int) {
	var arena Arena
	for lo := 0; lo < len(prev); {
		hi := lo + 1
		a := prev[lo][0]
		for hi < len(prev) && prev[hi][0] == a {
			hi++
		}
		for i := lo; i < hi; i++ {
			b := prev[i][1]
			for j := i + 1; j < hi; j++ {
				c := prev[j][1]
				potential++
				if all2.HasPair(b, c) {
					cand := arena.Alloc(3)
					cand[0], cand[1], cand[2] = a, b, c
					cands = append(cands, cand)
				} else {
					pruned++
				}
			}
		}
		lo = hi
	}
	return cands, potential, pruned
}

// samePrefix reports whether a and b (same length) agree on all but the
// final item.
func samePrefix(a, b itemset.Itemset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasAllSubsetsBuf reports whether every (k-1)-subset of cand is in prevSet,
// writing scratch subsets into buf (len k-1). The two subsets obtained by
// dropping one of the final two items equal the join parents and are
// skipped.
func hasAllSubsetsBuf(cand itemset.Itemset, prevSet *itemset.Set, buf itemset.Itemset) bool {
	k := len(cand)
	for i := 0; i < k-2; i++ {
		copy(buf, cand[:i])
		copy(buf[i:], cand[i+1:])
		if !prevSet.Has(buf) {
			return false
		}
	}
	return true
}
