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
// reads tables that Retain or DecodeWire returned, whose masks are built.
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
// must be a table that Retain or DecodeWire returned.
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
// total reaches threshold. Every segment must be a table that Retain or
// DecodeWire returned.
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
// segment must be a table that Retain or DecodeWire returned.
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

// PairScan answers pair-bound queries over a fixed ascending item universe
// (a mining run's globally frequent items) with every row lookup resolved
// up front: per segment, the matrix row number of each universe position.
// Row indexes stay valid until the next Retain, so a scan is built once per
// run, after the post-pass-1 Retain, and reused for every partition.
type PairScan struct {
	g    *Global
	rows [][]int32 // [segment][pos] row number of universe[pos], -1 absent
	ra   []int32   // hoisted row numbers of the current outer item
}

// NewPairScan resolves the universe's row numbers across every segment.
func (g *Global) NewPairScan(universe []itemset.Item) *PairScan {
	ps := &PairScan{
		g:    g,
		rows: make([][]int32, len(g.segments)),
		ra:   make([]int32, len(g.segments)),
	}
	for p, seg := range g.segments {
		rows := make([]int32, len(universe))
		for i, it := range universe {
			rows[i] = seg.rowIndex(it)
		}
		ps.rows[p] = rows
	}
	return ps
}

// Fork returns a scan sharing this scan's resolved row tables but with a
// private hoist register, so concurrent workers can Hoist different outer
// items over the same universe. Forks stay valid exactly as long as the
// parent (until the next Retain).
func (ps *PairScan) Fork() *PairScan {
	return &PairScan{g: ps.g, rows: ps.rows, ra: make([]int32, len(ps.ra))}
}

// Present reports whether the item at universe position pos has a row in
// segment p.
func (ps *PairScan) Present(p, pos int) bool { return ps.rows[p][pos] >= 0 }

// Hoist fixes the outer item of subsequent Seg/BoundReaches calls by
// universe position.
func (ps *PairScan) Hoist(aPos int) {
	for p := range ps.rows {
		ps.ra[p] = ps.rows[p][aPos]
	}
}

// SegScan is a PairScan pinned to one segment with the hoisted outer item
// resolved, so the per-pair call carries no segment indirections. Re-take
// after each Hoist.
type SegScan struct {
	l    *Local
	rows []int32
	ra   int32
}

// Seg pins the scan to segment p and the currently hoisted outer item.
func (ps *PairScan) Seg(p int) SegScan {
	return SegScan{l: ps.g.segments[p], rows: ps.rows[p], ra: ps.ra[p]}
}

// BoundReaches evaluates the segment's pair bound between the hoisted item
// and universe position bPos, with the results and slot charges of
// Local.BoundReaches over the same pair.
func (s SegScan) BoundReaches(bPos, threshold int) (reaches bool, slots int) {
	sum, cost := s.l.pairBoundIdx(s.ra, s.rows[bPos], threshold)
	return sum >= threshold, cost
}

// BoundReaches evaluates the cascaded pair bound between the hoisted item
// and universe position bPos, with the results and slot charges of
// Global.BoundReaches over the same pair. Single-word segments resolve in
// the loop body without a call; wider geometries fall back to
// pairBoundIdx.
func (ps *PairScan) BoundReaches(bPos, threshold int) (reaches bool, slots int) {
	if threshold <= 0 {
		return true, 0
	}
	sum, total := 0, 0
	for p, seg := range ps.g.segments {
		ra, rb := ps.ra[p], ps.rows[p][bPos]
		if ra < 0 || rb < 0 {
			continue
		}
		if seg.fast1 {
			m := seg.maskData[ra] & seg.maskData[rb]
			total++
			if m == 0 {
				continue
			}
			stop := threshold - sum
			if pc := bits.OnesCount64(m); pc >= stop {
				return true, total
			}
			s, n := seg.pairSumBits(ra, rb, m, stop)
			sum += s
			total += n
			if sum >= threshold {
				return true, total
			}
			continue
		}
		s, n := seg.pairBoundIdx(ra, rb, threshold-sum)
		sum += s
		total += n
		if sum >= threshold {
			return true, total
		}
	}
	return false, total
}

// SlotIndex is the transpose of one segment's occupancy masks over a
// list of universe positions that all have a row there (pass 2's locally
// present frequent items): per slot, a bitset over list indexes whose row
// occupies the slot. A pair of rows that share no occupied slot has pair
// bound 0, so the slots of an outer row name exactly the partners whose
// bound can be positive; Meets ORs those slots' bitsets together instead
// of testing the outer row's mask against every partner's. Like a
// PairScan, an index is built once per run, after the post-pass-1 Retain,
// stays valid until the next Retain, and is read-only, so concurrent
// generation workers share one.
type SlotIndex struct {
	l     *Local
	rows  []int32  // rows[i] is the row number of present[i]
	words int      // bitset words per slot: ceil(len(present)/64)
	bits  []uint64 // slot j's bitset is bits[j*words : (j+1)*words]
}

// NewSlotIndex builds the slot index of segment p over present, ascending
// universe positions that each have a row in segment p.
func (ps *PairScan) NewSlotIndex(p int, present []int32) *SlotIndex {
	l := ps.g.segments[p]
	words := (len(present) + 63) / 64
	si := &SlotIndex{
		l:     l,
		rows:  make([]int32, len(present)),
		words: words,
		bits:  make([]uint64, l.entries*words),
	}
	w := l.mw
	for i, pos := range present {
		r := ps.rows[p][pos]
		si.rows[i] = r
		bit := uint64(1) << (i % 64)
		for mwi, m := range l.maskData[int(r)*w : (int(r)+1)*w] {
			for ; m != 0; m &= m - 1 {
				j := mwi*64 + bits.TrailingZeros64(m)
				si.bits[j*words+i/64] |= bit
			}
		}
	}
	return si
}

// MaskWords is what a pair bound on this segment charges for a pair whose
// masks are disjoint: one slot per mask word, as pairBoundIdx charges.
func (si *SlotIndex) MaskWords() int { return si.l.mw }

// Meets returns the present indexes above i whose row shares an occupied
// slot with the row of present[i], as a bitset in buf's backing: bit b of
// union[k] stands for index (base+k)*64+b. Walking it in bit order lists
// those partners ascending; every other index above i is a pair whose
// bound is 0. The union is built in place, without allocating once buf
// has grown to the index's width.
func (si *SlotIndex) Meets(i int, buf []uint64) (union []uint64, base int) {
	lo := i + 1
	base = lo / 64
	n := si.words - base
	if n <= 0 {
		return buf[:0], base
	}
	if cap(buf) < n {
		buf = make([]uint64, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	w := si.l.mw
	r := int(si.rows[i])
	for mwi, m := range si.l.maskData[r*w : (r+1)*w] {
		for ; m != 0; m &= m - 1 {
			j := mwi*64 + bits.TrailingZeros64(m)
			src := si.bits[j*si.words+base : (j+1)*si.words]
			dst := buf[:len(src)]
			for k, v := range src {
				dst[k] |= v
			}
		}
	}
	buf[0] &^= uint64(1)<<(lo%64) - 1
	return buf, base
}
