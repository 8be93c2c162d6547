package tht

import (
	"math/bits"
	"slices"

	"pmihp/internal/itemset"
)

// PairGen decides pass 2's candidate pairs at one node of a cascade: for
// each of the node's locally present frequent items, the later ones whose
// pair bound (GetMaxPossibleCount) reaches the node's local threshold in
// its own segment and then the pruning threshold over the whole cascade
// (sections 2.3–2.4). Items are addressed by present index, their position
// among the rows of the node's own segment, which Build keeps in ascending
// item order for exactly the kept items the node holds. A PairGen is built
// once per run, after the THT exchange, stays valid until the next Retain,
// and is read-only, so concurrent generation workers share one, each with
// its own PairScratch.
//
// It decides on one of two paths, picked once per run. The sweep reads an
// outer item's entries in the slot lists (the slot-major inversion of
// every segment, below) and sums, for every later partner at once, the
// slot minima whose sums are the pair bounds. The per-pair loop probes
// each later partner's self-segment bound and then its cascaded one. Both
// charge exactly what the per-pair loop charges.
type PairGen struct {
	g                  *Global
	self               int
	minLocal, minPrune int
	// items[i] is the item at present index i: the self segment's rows.
	items []itemset.Item
	// rows[p][i] is items[i]'s row number in segment p, -1 when absent.
	rows [][]int32
	// post holds the slot lists the sweep reads; nil when the gate picked
	// the per-pair loop.
	post *slotPostings
}

// sweepCrossover is the gate between the two paths: the sweep steps per
// partner pair (entry pairs that share a slot list, over C(present, 2))
// above which the per-pair loop generates faster. The sweep costs a step
// per pair of rows that share a slot list, the per-pair loop a mask test
// per partner pair and a cascaded probe per pair whose masks meet, so
// sparse tables sweep and tables whose rows share most slot lists probe.
// BenchmarkPairGen measures the sweep 1.7× faster at 4.3 steps per pair
// (paper-smoke) and 2.1× slower at 8.9 (e9dense). Between them,
// paper-scale corpus B on 4 and 2 nodes (4.4 and 4.7) sweeps 1.7× and
// 3.2× faster, while the dense corpus on 4 nodes (8.0) and at harness
// scale and 4% support (8.7) probes 1.9× and 1.1× faster.
const sweepCrossover = 6

// NewPairGen prepares the pair decision of segment self's node: each
// present item's row in every segment and, when the gate picks the sweep,
// the slot lists. minLocal is the node's local threshold and minPrune the
// cascade's.
func (g *Global) NewPairGen(self, minLocal, minPrune int) *PairGen {
	n := int64(g.segments[self].NumItems())
	return g.newPairGen(self, minLocal, minPrune, sweepCrossover*n*(n-1)/2)
}

// newPairGen is NewPairGen with the gate's budget given: the sweep's slot
// lists are built unless sweeping every present item would take more than
// maxSteps steps, which it counts from the list lengths before allocating
// any entries.
func (g *Global) newPairGen(self, minLocal, minPrune int, maxSteps int64) *PairGen {
	items := g.segments[self].rowItem
	pg := &PairGen{
		g: g, self: self, minLocal: minLocal, minPrune: minPrune,
		items: items,
		rows:  make([][]int32, len(g.segments)),
	}
	for p, seg := range g.segments {
		rows := make([]int32, len(items))
		for i, it := range items {
			rows[i] = seg.rowIndex(it)
		}
		pg.rows[p] = rows
	}
	pg.post = pg.newSlotPostings(maxSteps)
	return pg
}

// Items returns the item at every present index, ascending. The slice is
// the self segment's and must not be modified.
func (pg *PairGen) Items() []itemset.Item { return pg.items }

// PairScratch is one generation worker's scratch: the sweep's per-partner
// sums and touched-partner bitset (sized to the present items, cleared as
// they are read), the outer item's tails and segment row bitsets, and the
// partners Partners returns.
type PairScratch struct {
	sums      []pairSums
	touched   []uint64
	tails     []tail
	outerRows [][]uint64
	partners  []int32
}

// NewScratch returns a worker's scratch for Partners.
func (pg *PairGen) NewScratch() *PairScratch {
	s := &PairScratch{}
	if pg.post != nil {
		n := len(pg.items)
		s.sums = make([]pairSums, n)
		s.touched = make([]uint64, (n+63)/64)
	}
	return s
}

// Partners decides the pairs of present item i with every later present
// item. It returns the later present indexes whose pairs reach both
// thresholds, ascending, in s's buffer (valid until the next call on s),
// and tallies the decisions as the paper's per-pair loop charges them:
// the pairs considered, the THT slots (or mask words, at the same rate)
// read and the pairs pruned.
func (pg *PairGen) Partners(s *PairScratch, i int) (partners []int32, considered, slots, pruned int64) {
	s.partners = s.partners[:0]
	if pg.post != nil {
		slots, pruned = pg.sweep(s, i)
	} else {
		slots, pruned = pg.probe(s, i)
	}
	return s.partners, int64(len(pg.items) - i - 1), slots, pruned
}

// probe is the per-pair loop: the self-segment bound of every later
// partner, then the cascaded bound of the pairs that pass it.
func (pg *PairGen) probe(s *PairScratch, i int) (slots, pruned int64) {
	seg, rows := pg.g.segments[pg.self], pg.rows[pg.self]
	cascade := len(pg.g.segments) > 1
	for b := i + 1; b < len(pg.items); b++ {
		sum, n := seg.pairBoundIdx(rows[i], rows[b], pg.minLocal)
		slots += int64(n)
		ok := sum >= pg.minLocal
		if ok && cascade {
			ok, n = pg.cascadeReaches(i, b, pg.minPrune)
			slots += int64(n)
		}
		if !ok {
			pruned++
			continue
		}
		s.partners = append(s.partners, int32(b))
	}
	return slots, pruned
}

// cascadeReaches evaluates the cascaded bound of the pair of present items
// i and b, with the results and slot charges of Global.BoundReaches over
// the same pair. Single-word segments resolve in the loop body without a
// call; wider geometries fall back to pairBoundIdx.
func (pg *PairGen) cascadeReaches(i, b, threshold int) (reaches bool, slots int) {
	if threshold <= 0 {
		return true, 0
	}
	sum, total := 0, 0
	for p, seg := range pg.g.segments {
		ra, rb := pg.rows[p][i], pg.rows[p][b]
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

// pairSums is one partner's sums during a sweep over an outer item's slot
// lists, in the node's own segment (self) and over every other segment
// (peers). Each packs the sum of the slot minima — the pair bound — in its
// high 32 bits over the number of shared slots in its low 32 bits, so one
// addition of slotMin per shared slot keeps both.
type pairSums struct{ self, peers uint64 }

// slotMin is one shared slot's contribution to a pairSums field.
func slotMin(a, b uint32) uint64 { return uint64(min(a, b))<<32 | 1 }

// sweep decides the partners of present item i from one sweep over its
// slot lists. The self segment's lists give every partner that shares a
// self slot its self-segment bound and shared-slot count; the peers' lists
// add, for those partners only, their bounds and shared slots in every
// other segment. Walking the touched partners in bit order then decides
// each pair ascending, and every untouched partner has disjoint self
// masks: the per-pair loop rejects it at one mask test.
//
// Each decision charges what the per-pair loop charges. A bound that
// stays below its threshold never exits early, so its charge is
// closed-form: a mask test per segment where both items have a row plus
// every shared slot; the mask tests are counted a word of pruned partners
// at a time against the segments' row bitsets. A bound that reaches its
// threshold on the shared-slot count alone costs the mask test; one that
// reaches it part-way through the shared slots is probed once for the
// point where it stops.
func (pg *PairGen) sweep(s *PairScratch, i int) (slots, pruned int64) {
	x := pg.post
	sums, touched := s.sums, s.touched
	disjoint := int64(len(pg.items) - i - 1)
	maskCost := int64(pg.g.segments[0].mw)
	met := false // i shares a self slot with some partner
	s.tails = pg.tails(pg.self, i, s.tails)
	for _, t := range s.tails {
		ca, above := x.above(t)
		met = met || len(above) > 0
		for _, e := range above {
			sums[e.item].self += slotMin(ca, e.count)
			touched[e.item>>6] |= 1 << (e.item & 63)
		}
	}
	if !met {
		return disjoint * maskCost, disjoint
	}
	nseg := len(pg.g.segments)
	outerRows := s.outerRows[:0] // the row bitsets of the segments where i has a row
	for p := 0; p < nseg; p++ {
		rows := x.rowBits(p)
		if rows[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		outerRows = append(outerRows, rows)
		if p == pg.self {
			continue
		}
		s.tails = pg.tails(p, i, s.tails)
		for _, t := range s.tails {
			ca, above := x.above(t)
			for _, e := range above {
				if sm := &sums[e.item]; sm.self != 0 {
					sm.peers += slotMin(ca, e.count)
				}
			}
		}
	}
	s.outerRows = outerRows

	self, selfRows := pg.g.segments[pg.self], pg.rows[pg.self]
	minLocal, minPrune := pg.minLocal, pg.minPrune
	tests := int64(0)
	for k := (i + 1) / 64; k < len(touched); k++ {
		cut := uint64(0) // partners the cascade's closed form prunes
		for m := touched[k]; m != 0; m &= m - 1 {
			b := k*64 + bits.TrailingZeros64(m)
			sm := sums[b]
			sums[b] = pairSums{}
			disjoint--
			selfSum, selfSlots := int(sm.self>>32), int64(uint32(sm.self))
			switch {
			case selfSlots >= int64(minLocal):
				tests++
			case selfSum < minLocal:
				tests++
				slots += selfSlots
				pruned++
				continue
			default:
				_, n := self.pairBoundIdx(selfRows[i], selfRows[b], minLocal)
				slots += int64(n)
			}
			if nseg > 1 {
				if selfSum+int(sm.peers>>32) < minPrune {
					slots += selfSlots + int64(uint32(sm.peers))
					cut |= m & -m
					pruned++
					continue
				}
				_, n := pg.cascadeReaches(i, b, minPrune)
				slots += int64(n)
			}
			s.partners = append(s.partners, int32(b))
		}
		touched[k] = 0
		if cut != 0 {
			for _, rows := range outerRows {
				tests += int64(bits.OnesCount64(cut & rows[k]))
			}
		}
	}
	return slots + (tests+disjoint)*maskCost, pruned + disjoint
}

// slotPostings is the slot-major inversion of a cascade over the present
// items: for every segment and every slot, the ascending list of (present
// index, counter) of the rows that occupy the slot. A THT inverts items
// into TID slots; this inverts it once more, slot → items, so one
// sequential sweep over an outer row's occupied slots reads, for every
// later partner at once, the slot minima whose sum is the pair bound —
// instead of one probe per pair that reads the two rows' masks and
// counters segment by segment.
//
// The sweep's total work is the number of same-list entry pairs,
// Σ C(len, 2) over the lists, which is small where rows are sparse and
// approaches slots × partners where most rows occupy most slots. The lists
// hold one 8-byte entry per occupied slot of a present row in each
// segment; a row finds its own entries (tails) from its mask and a binary
// search of each list.
type slotPostings struct {
	// list (p, j) is lists[start[p*h+j] : start[p*h+j+1]], ascending by
	// present index, with h the segments' width.
	start []int32
	lists []posting
	// rows[p*words : (p+1)*words] is the bitset over present indexes of
	// the items with a row in segment p.
	words int
	rows  []uint64
}

// posting is one entry of a slot list: a present item's index and its
// row's counter at the slot.
type posting struct {
	item  int32
	count uint32
}

// tail is one occupied slot of a row in one segment: the row's own entry
// in the slot's list and the end of that list, so the list entries above
// the row are the partners above it that share the slot.
type tail struct{ at, end int32 }

// listLens counts the entries of each (segment, slot) list, segment-major.
func (pg *PairGen) listLens() []int32 {
	h := pg.g.segments[0].entries
	lens := make([]int32, len(pg.g.segments)*h)
	for p, seg := range pg.g.segments {
		w := seg.mw
		for _, r := range pg.rows[p] {
			if r < 0 {
				continue
			}
			for wi, m := range seg.maskData[int(r)*w : (int(r)+1)*w] {
				for ; m != 0; m &= m - 1 {
					lens[p*h+wi*64+bits.TrailingZeros64(m)]++
				}
			}
		}
	}
	return lens
}

// newSlotPostings builds the slot lists of the present items over every
// segment — unless sweeping every present item's tails would take more
// than maxSteps steps (entry pairs that share a list), and then it
// returns nil.
func (pg *PairGen) newSlotPostings(maxSteps int64) *slotPostings {
	segs := pg.g.segments
	h := segs[0].entries
	lens := pg.listLens()
	steps := int64(0)
	for _, l := range lens {
		steps += int64(l) * int64(l-1) / 2
	}
	if steps > maxSteps {
		return nil
	}
	n := len(pg.items)
	x := &slotPostings{
		start: make([]int32, len(lens)+1),
		words: (n + 63) / 64,
	}
	for k, l := range lens {
		x.start[k+1] = x.start[k] + l
	}
	x.lists = make([]posting, x.start[len(lens)])
	x.rows = make([]uint64, len(segs)*x.words)
	fill := slices.Clone(x.start[:len(lens)]) // each list's next free entry
	for p, seg := range segs {
		w := seg.mw
		for i, r32 := range pg.rows[p] {
			r := int(r32)
			if r < 0 {
				continue
			}
			x.rows[p*x.words+i/64] |= 1 << (i % 64)
			row := seg.data[r*h : (r+1)*h]
			for wi, m := range seg.maskData[r*w : (r+1)*w] {
				for ; m != 0; m &= m - 1 {
					j := wi*64 + bits.TrailingZeros64(m)
					x.lists[fill[p*h+j]] = posting{item: int32(i), count: row[j]}
					fill[p*h+j]++
				}
			}
		}
	}
	return x
}

// tails appends to buf[:0] present item i's occupied slots in segment p,
// ascending, and returns it: for each, the row's own entry in the slot's
// list and the list's end.
func (pg *PairGen) tails(p, i int, buf []tail) []tail {
	buf = buf[:0]
	r := int(pg.rows[p][i])
	if r < 0 {
		return buf
	}
	x, seg := pg.post, pg.g.segments[p]
	w := seg.mw
	for wi, m := range seg.maskData[r*w : (r+1)*w] {
		for ; m != 0; m &= m - 1 {
			k := p*seg.entries + wi*64 + bits.TrailingZeros64(m)
			lo, hi := x.start[k], x.start[k+1]
			end := hi
			for lo < hi { // the row's entry: the first not below i
				mid := int32(uint32(lo+hi) >> 1)
				if x.lists[mid].item < int32(i) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			buf = append(buf, tail{at: lo, end: end})
		}
	}
	return buf
}

// above returns the counter of a tail's own row at its slot and the list
// entries above the row: the later present items that share the slot,
// ascending, with their counters.
func (x *slotPostings) above(t tail) (count uint32, above []posting) {
	return x.lists[t.at].count, x.lists[t.at+1 : t.end]
}

// rowBits returns the bitset over present indexes of the items with a row
// in segment p: bit i%64 of word i/64 stands for present item i. A
// cascaded pair bound pays a mask test in every segment where both items
// have a row.
func (x *slotPostings) rowBits(p int) []uint64 {
	return x.rows[p*x.words : (p+1)*x.words]
}
