package tht

// Per-item occupancy bitmasks over the THT slots. Intersecting the masks of
// an itemset's members decides "can the IHP bound be nonzero at all?" in a
// handful of word operations instead of a full slot scan — the decisive
// fast path when the pruning threshold is 1 or 2 (the low-support regime the
// paper targets), where most candidate pairs never co-hash at all. The mask
// is an implementation device for the same table the paper defines; work
// charging for mask words uses the same CostTHTSlot rate as slot scans.
// Build, Retain and DecodeWire build the masks of every row they keep, so
// every table a bound reads has them.

// maskWords returns the number of 64-bit words covering the slot space.
func (l *Local) maskWords() int { return l.mw }

// BuildMasks materializes the occupancy masks for every current row from
// the counters. Retain runs it after compacting the kept rows; Build sets
// the same masks as it fills.
func (l *Local) BuildMasks() {
	w := l.maskWords()
	h := l.entries
	// One flat mask matrix, row-aligned with the counter matrix: built once
	// per run, when the live row count is known.
	l.maskData = make([]uint64, len(l.rowItem)*w)
	l.occ = make([]int32, len(l.rowItem))
	for r := range l.rowItem {
		row := l.data[r*h : (r+1)*h]
		mask := l.maskData[r*w : (r+1)*w]
		n := int32(0)
		for j, c := range row {
			if c > 0 {
				mask[j/64] |= 1 << (j % 64)
				n++
			}
		}
		l.occ[r] = n
	}
}
