package tht

import (
	"math/bits"
	"slices"
)

// SlotPostings is the slot-major inversion of a cascade over a list of
// universe positions (pass 2's locally present frequent items): for every
// segment and every slot, the ascending list of (present index, counter)
// of the rows that occupy the slot. A THT inverts items into TID slots;
// this inverts it once more, slot → items, so one sequential sweep over an
// outer row's occupied slots reads, for every later partner at once, the
// slot minima whose sum is the pair bound — instead of one probe per pair
// that reads the two rows' masks and counters segment by segment.
//
// The sweep's total work is the number of same-list entry pairs,
// Σ C(len, 2) over the lists, which is small where rows are sparse and
// approaches slots × partners where most rows occupy most slots. The index
// holds one 8-byte entry per occupied slot of a present row in each
// segment; a row finds its own entries (Tails) from its mask and a binary
// search of each list. Like a PairScan, an index is built once per run,
// after the THT exchange, stays valid until the next Retain, and is
// read-only, so concurrent generation workers share one.
type SlotPostings struct {
	ps      *PairScan
	present []int32 // the present items' universe positions
	h, mw   int     // slots and mask words per segment
	// list (p, j) is lists[start[p*h+j] : start[p*h+j+1]], ascending by
	// present index.
	start []int32
	lists []Posting
	// rows[p*words : (p+1)*words] is the bitset over present indexes of
	// the items with a row in segment p.
	words int
	rows  []uint64
}

// Posting is one entry of a slot list: a present item's index and its
// row's counter at the slot.
type Posting struct {
	Item  int32
	Count uint32
}

// Tail is one occupied slot of a row in one segment: the row's own entry
// in the slot's list and the end of that list, so the list entries above
// the row are the partners above it that share the slot.
type Tail struct{ at, end int32 }

// listLens counts the entries of each (segment, slot) list, segment-major.
func (ps *PairScan) listLens(present []int32) []int32 {
	h := ps.g.segments[0].entries
	lens := make([]int32, len(ps.g.segments)*h)
	for p, seg := range ps.g.segments {
		w := seg.mw
		for _, pos := range present {
			r := int(ps.rows[p][pos])
			if r < 0 {
				continue
			}
			for wi, m := range seg.maskData[r*w : (r+1)*w] {
				for ; m != 0; m &= m - 1 {
					lens[p*h+wi*64+bits.TrailingZeros64(m)]++
				}
			}
		}
	}
	return lens
}

// NewSlotPostings builds the slot postings of present, ascending universe
// positions, over every segment — unless sweeping every present item's
// tails would take more than maxSteps steps (entry pairs that share a
// list), which it counts from the list lengths before allocating any
// entries, and then it returns nil. The postings read ps's row tables and
// the segments' masks, so they stay valid as long as ps does.
func (ps *PairScan) NewSlotPostings(present []int32, maxSteps int64) *SlotPostings {
	segs := ps.g.segments
	h := segs[0].entries
	lens := ps.listLens(present)
	steps := int64(0)
	for _, l := range lens {
		steps += int64(l) * int64(l-1) / 2
	}
	if steps > maxSteps {
		return nil
	}
	x := &SlotPostings{
		ps:      ps,
		present: present,
		h:       h,
		mw:      segs[0].mw,
		start:   make([]int32, len(lens)+1),
		words:   (len(present) + 63) / 64,
	}
	for k, l := range lens {
		x.start[k+1] = x.start[k] + l
	}
	x.lists = make([]Posting, x.start[len(lens)])
	x.rows = make([]uint64, len(segs)*x.words)
	fill := slices.Clone(x.start[:len(lens)]) // each list's next free entry
	for p, seg := range segs {
		w := seg.mw
		for i, pos := range present {
			r := int(ps.rows[p][pos])
			if r < 0 {
				continue
			}
			x.rows[p*x.words+i/64] |= 1 << (i % 64)
			row := seg.data[r*h : (r+1)*h]
			for wi, m := range seg.maskData[r*w : (r+1)*w] {
				for ; m != 0; m &= m - 1 {
					j := wi*64 + bits.TrailingZeros64(m)
					x.lists[fill[p*h+j]] = Posting{Item: int32(i), Count: row[j]}
					fill[p*h+j]++
				}
			}
		}
	}
	return x
}

// Tails appends to buf[:0] present item i's occupied slots in segment p,
// ascending, and returns it: for each, the row's own entry in the slot's
// list and the list's end.
func (x *SlotPostings) Tails(p, i int, buf []Tail) []Tail {
	buf = buf[:0]
	r := int(x.ps.rows[p][x.present[i]])
	if r < 0 {
		return buf
	}
	w := x.mw
	for wi, m := range x.ps.g.segments[p].maskData[r*w : (r+1)*w] {
		for ; m != 0; m &= m - 1 {
			k := p*x.h + wi*64 + bits.TrailingZeros64(m)
			lo, hi := x.start[k], x.start[k+1]
			end := hi
			for lo < hi { // the row's entry: the first not below i
				mid := int32(uint32(lo+hi) >> 1)
				if x.lists[mid].Item < int32(i) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			buf = append(buf, Tail{at: lo, end: end})
		}
	}
	return buf
}

// Above returns the counter of a tail's own row at its slot and the list
// entries above the row: the later present items that share the slot,
// ascending, with their counters.
func (x *SlotPostings) Above(t Tail) (count uint32, above []Posting) {
	return x.lists[t.at].Count, x.lists[t.at+1 : t.end]
}

// Rows returns the bitset over present indexes of the items with a row
// in segment p: bit i%64 of word i/64 stands for present item i. A
// cascaded pair bound pays a mask test in every segment where both items
// have a row.
func (x *SlotPostings) Rows(p int) []uint64 {
	return x.rows[p*x.words : (p+1)*x.words]
}

// MaskCost is what one segment's pair bound charges for its mask test,
// whatever the test finds: one slot per mask word.
func (x *SlotPostings) MaskCost() int { return x.mw }
