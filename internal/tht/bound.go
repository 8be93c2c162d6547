package tht

import (
	"math/bits"

	"pmihp/internal/itemset"
)

// Threshold-bounded evaluation of the IHP upper bound. All entry points
// answer "does GetMaxPossibleCount(x) reach threshold?" while examining as
// little of the tables as possible. The intersection of the items'
// occupancy masks (see mask.go) is computed first: an empty intersection
// proves a zero bound, a popcount at or above the threshold proves the
// bound reaches it (every intersecting slot contributes at least one), and
// otherwise only the few intersecting slots are summed. Every entry point
// reads tables that Build, Retain or DecodeWire returned, whose masks are
// built.
//
// This makes the evaluation cost proportional to the number of slots
// where the items actually co-hash rather than to the table size —
// which is what keeps the paper's claim that "the sizes of the partitions
// and THT are not critical for the overall performance" true in the cost
// model as well (ablation A3). Every path is allocation-free for itemsets
// up to maxStackItems: row pointers and intersection scratch live in stack
// arrays, because these evaluations run once per candidate.

// BoundReaches reports whether the IHP upper bound for the itemset reaches
// threshold. slots is the number of table slots (or mask words, charged at
// the same rate) examined. A false result proves the bound — the sum over
// slots of the minimum counter among x's items — is below threshold. l
// must be a table that Build, Retain or DecodeWire returned.
func (l *Local) BoundReaches(x itemset.Itemset, threshold int) (reaches bool, slots int) {
	sum, cost := l.boundUpTo(x, threshold)
	return sum >= threshold, cost
}

// boundUpTo accumulates the slot-minimum sum until it reaches stop, and
// returns the (possibly truncated) sum with the evaluation cost.
func (l *Local) boundUpTo(x itemset.Itemset, stop int) (sum, cost int) {
	if len(x) == 0 || stop <= 0 {
		return 0, 0
	}
	var rowsBuf [maxStackItems][]uint32
	rows, ok := l.fetchRows(x, &rowsBuf)
	if !ok {
		return 0, 0
	}
	var scratch [16]uint64
	inter, cost, ok := l.intersection(x, scratch[:0])
	if !ok {
		return 0, cost
	}
	pc := 0
	for _, w := range inter {
		pc += bits.OnesCount64(w)
	}
	if pc == 0 {
		return 0, cost
	}
	if pc >= stop {
		return stop, cost
	}
	// Fewer intersecting slots than the threshold: sum exactly those.
	for wi, w := range inter {
		for ; w != 0; w &= w - 1 {
			j := wi*64 + bits.TrailingZeros64(w)
			cost++
			min := rows[0][j]
			for i := 1; i < len(rows) && min > 0; i++ {
				if rows[i][j] < min {
					min = rows[i][j]
				}
			}
			sum += int(min)
			if sum >= stop {
				return sum, cost
			}
		}
	}
	return sum, cost
}

// intersection ANDs the occupancy masks of the itemset's members into buf.
// ok is false when an item has no mask (no row) or the intersection is
// provably empty part-way through. A saturated member (every slot occupied
// — a stopword-grade item) is the identity of the AND chain: the
// accumulator only ever holds in-range slot bits, so the member's mask
// memory is never read. The word charge is the same either way.
func (l *Local) intersection(x itemset.Itemset, buf []uint64) (inter []uint64, words int, ok bool) {
	w := l.maskWords()
	sat := int32(l.entries)
	for i, it := range x {
		r := l.rowIndex(it)
		if r < 0 {
			return nil, words, false
		}
		if i == 0 {
			buf = append(buf, l.maskData[int(r)*w:(int(r)+1)*w]...)
			continue
		}
		words += len(buf)
		if l.occ[r] == sat {
			// buf stays non-empty: it held at least one bit after the last
			// checked AND (and every live row's own mask is non-empty).
			continue
		}
		m := l.maskData[int(r)*w : (int(r)+1)*w]
		any := uint64(0)
		for j := range buf {
			buf[j] &= m[j]
			any |= buf[j]
		}
		if any == 0 {
			return nil, words, false
		}
	}
	return buf, words, true
}

// positiveBound reports whether the IHP bound for x is positive, charging
// exactly what BoundReaches(x, 1) charges: the intersection's word count,
// or nothing when an item has no row. It exists so PollPeers can classify
// a whole batch itemset against every segment without fetching counter
// rows or allocating.
func (l *Local) positiveBound(x itemset.Itemset) (positive bool, cost int) {
	if len(x) == 0 {
		return false, 0
	}
	for _, it := range x {
		if l.rowIndex(it) < 0 {
			return false, 0
		}
	}
	var scratch [16]uint64
	// A non-empty intersection has a slot where every member co-hashes, so
	// the bound is at least 1.
	_, words, ok := l.intersection(x, scratch[:0])
	return ok, words
}

// BoundReaches is the cascaded-table analogue: per-segment partial sums
// accumulate across segments and evaluation stops as soon as the running
// total reaches threshold. Every segment must be a table that Build,
// Retain or DecodeWire returned.
func (g *Global) BoundReaches(x itemset.Itemset, threshold int) (reaches bool, slots int) {
	sum, total := 0, 0
	for _, seg := range g.segments {
		s, n := seg.boundUpTo(x, threshold-sum)
		sum += s
		total += n
		if sum >= threshold {
			return true, total
		}
	}
	return false, total
}

// PollPeers appends to buf the segments other than self whose IHP bound for
// x is positive — the peers PMIHP must poll for the itemset — and returns
// the extended slice with the total slot cost. It is the batch-classification
// kernel behind flush: one call replaces a BoundReaches(x, 1) per peer,
// with identical slot charges but no row fetches or allocations. Every
// segment must be a table that Build, Retain or DecodeWire returned.
func (g *Global) PollPeers(x itemset.Itemset, self int, buf []int) (peers []int, slots int) {
	peers = buf[:0]
	for p, seg := range g.segments {
		if p == self {
			continue
		}
		ok, cost := seg.positiveBound(x)
		slots += cost
		if ok {
			peers = append(peers, p)
		}
	}
	return peers, slots
}

// rowIndex returns the matrix row number of an item, or -1 when absent.
func (l *Local) rowIndex(it itemset.Item) int32 {
	if int(it) >= len(l.rowIdx) {
		return -1
	}
	return l.rowIdx[it]
}

// pairBoundIdx is boundUpTo for the pair of items at matrix rows ra and
// rb, with identical results and slot charges. Counter-row slices are
// materialized only on the partial-popcount path — in the masked
// low-support regime most pairs resolve from the two mask words alone, so
// the common case touches no counter memory and builds no slice headers
// at all.
func (l *Local) pairBoundIdx(ra, rb int32, stop int) (sum, cost int) {
	if stop <= 0 || ra < 0 || rb < 0 {
		return 0, 0
	}
	if l.fast1 {
		m := l.maskData[ra] & l.maskData[rb]
		if m == 0 {
			return 0, 1
		}
		if pc := bits.OnesCount64(m); pc >= stop {
			return stop, 1
		}
		sum, cost = l.pairSumBits(ra, rb, m, stop)
		return sum, cost + 1
	}
	h, w := l.entries, l.mw
	cost = w
	// A saturated row's mask is the AND identity, so the pair's
	// co-occupancy popcount is just the other row's occupancy counter — no
	// mask memory is read. The charge stays w words, exactly what the
	// mask scan would have cost.
	pc := 0
	switch sat := int32(h); {
	case l.occ[ra] == sat:
		pc = int(l.occ[rb])
	case l.occ[rb] == sat:
		pc = int(l.occ[ra])
	default:
		ma := l.maskData[int(ra)*w : (int(ra)+1)*w]
		mb := l.maskData[int(rb)*w : (int(rb)+1)*w]
		for j := range ma {
			pc += bits.OnesCount64(ma[j] & mb[j])
		}
	}
	if pc == 0 {
		return 0, cost
	}
	if pc >= stop {
		return stop, cost
	}
	ma := l.maskData[int(ra)*w : (int(ra)+1)*w]
	mb := l.maskData[int(rb)*w : (int(rb)+1)*w]
	rowA := l.data[int(ra)*h : (int(ra)+1)*h]
	rowB := l.data[int(rb)*h : (int(rb)+1)*h]
	for wi := range ma {
		for wv := ma[wi] & mb[wi]; wv != 0; wv &= wv - 1 {
			j := wi*64 + bits.TrailingZeros64(wv)
			cost++
			min := rowA[j]
			if rowB[j] < min {
				min = rowB[j]
			}
			sum += int(min)
			if sum >= stop {
				return sum, cost
			}
		}
	}
	return sum, cost
}

// pairSumBits sums min(rowA[j], rowB[j]) over the slots set in the mask
// word m (the partial-popcount path of a single-word table), charging one
// slot per examined bit and stopping at stop.
func (l *Local) pairSumBits(ra, rb int32, m uint64, stop int) (sum, cost int) {
	h := l.entries
	rowA := l.data[int(ra)*h : (int(ra)+1)*h]
	rowB := l.data[int(rb)*h : (int(rb)+1)*h]
	for ; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		cost++
		min := rowA[j]
		if rowB[j] < min {
			min = rowB[j]
		}
		sum += int(min)
		if sum >= stop {
			return sum, cost
		}
	}
	return sum, cost
}
