// Package txdb provides the in-memory transaction database used by every
// miner in this module. A transaction is a document reduced to the sorted
// set of its distinct items (word identifiers); the database preserves the
// chronological document order the paper relies on when distributing text
// to processing nodes.
//
// The store is laid out in CSR (compressed sparse row) form: one contiguous
// []Item backing array holds every transaction's items back to back, with a
// []uint32 offset array and parallel TID/Day arrays addressing it. Counting
// scans therefore stream one flat array instead of chasing a pointer per
// transaction, and node splits are views into the shared backing rather
// than per-transaction copies. The Tx/Each adapters preserve the original
// slice-of-transactions API for callers off the hot paths.
package txdb

import (
	"fmt"

	"pmihp/internal/itemset"
)

// TID identifies a transaction. TIDs are globally unique across a corpus,
// including after the database is split across simulated nodes, so TID hash
// tables built at different nodes hash consistently.
type TID = uint32

// Transaction is one document: its global TID, the day it was published
// (used for chronological distribution), and its distinct items in
// increasing order.
type Transaction struct {
	TID   TID
	Day   int
	Items itemset.Itemset
}

// DB is an ordered collection of transactions in CSR layout. A DB produced
// by SplitChronological shares its items backing with the parent: offsets
// are absolute into the shared array, so a view costs three slice headers.
type DB struct {
	items   []itemset.Item // backing array; tx i owns items[offsets[i]:offsets[i+1]]
	offsets []uint32       // len = Len()+1, absolute indexes into items
	tids    []TID          // len = Len()
	days    []int32        // len = Len()
	// numItems is one greater than the largest item id that may occur, i.e.
	// the vocabulary size. Kept so per-item arrays can be sized without
	// scanning.
	numItems int
}

// New returns a DB over the given transactions, packing their item lists
// into one contiguous backing array. numItems is the vocabulary size (all
// item ids must be < numItems).
func New(txs []Transaction, numItems int) *DB {
	total := 0
	for i := range txs {
		total += len(txs[i].Items)
	}
	d := &DB{
		items:    make([]itemset.Item, 0, total),
		offsets:  make([]uint32, len(txs)+1),
		tids:     make([]TID, len(txs)),
		days:     make([]int32, len(txs)),
		numItems: numItems,
	}
	for i := range txs {
		d.items = append(d.items, txs[i].Items...)
		d.offsets[i+1] = uint32(len(d.items))
		d.tids[i] = txs[i].TID
		d.days[i] = int32(txs[i].Day)
	}
	return d
}

// Len returns the number of transactions.
func (d *DB) Len() int { return len(d.tids) }

// NumItems returns the vocabulary size the database was declared with.
func (d *DB) NumItems() int { return d.numItems }

// TotalItems returns the summed length of all transactions — one subtraction
// in the CSR layout.
func (d *DB) TotalItems() int {
	if len(d.tids) == 0 {
		return 0
	}
	return int(d.offsets[len(d.tids)] - d.offsets[0])
}

// ItemsOf returns the item list of the i-th transaction, aliasing the
// backing array.
func (d *DB) ItemsOf(i int) itemset.Itemset {
	return d.items[d.offsets[i]:d.offsets[i+1]]
}

// TIDOf returns the TID of the i-th transaction.
func (d *DB) TIDOf(i int) TID { return d.tids[i] }

// DayOf returns the day of the i-th transaction.
func (d *DB) DayOf(i int) int { return int(d.days[i]) }

// TIDSpan returns the size of the database's TID range, maxTID-minTID+1 —
// the bit width a flat posting bitmap over this database needs. TIDs ascend
// in database order (assigned sequentially at corpus build, preserved by
// every split view), so the span is one subtraction; an empty database spans
// zero.
func (d *DB) TIDSpan() int {
	if len(d.tids) == 0 {
		return 0
	}
	return int(d.tids[len(d.tids)-1]-d.tids[0]) + 1
}

// CSR exposes the raw CSR arrays: transaction i has TID tids[i] and items
// items[offsets[i]:offsets[i+1]]. The arrays are owned by the database and
// must not be mutated.
func (d *DB) CSR() (items []itemset.Item, offsets []uint32, tids []TID) {
	return d.items, d.offsets, d.tids
}

// MemBytes returns the resident size of the CSR arrays (a split view
// reports only its own slice of the offset/TID/day arrays plus the item
// range it addresses — the portion of the shared backing it keeps alive per
// node).
func (d *DB) MemBytes() int64 {
	return int64(4*d.TotalItems()) + int64(4*len(d.offsets)) +
		int64(4*len(d.tids)) + int64(4*len(d.days))
}

// Tx returns the i-th transaction as a value; its Items alias the backing
// array.
func (d *DB) Tx(i int) Transaction {
	return Transaction{TID: d.tids[i], Day: int(d.days[i]), Items: d.ItemsOf(i)}
}

// Each calls fn for every transaction in order. The *Transaction is only
// valid for the duration of the call (it is reused between iterations).
func (d *DB) Each(fn func(t *Transaction)) {
	var t Transaction
	for i := range d.tids {
		t = d.Tx(i)
		fn(&t)
	}
}

// MinSupCount converts a fractional minimum support level (e.g. 0.02 for 2%)
// into the absolute transaction count it denotes over this database,
// rounding up so that count/len >= frac always holds. A fraction that
// denotes fewer than one transaction is clamped to 1.
func (d *DB) MinSupCount(frac float64) int {
	n := int(frac*float64(d.Len()) + 0.999999)
	if n < 1 {
		n = 1
	}
	return n
}

// ItemCounts returns the number of transactions containing each item,
// indexed by item id. The scan streams the flat backing array.
func (d *DB) ItemCounts() []int {
	counts := make([]int, d.numItems)
	if d.Len() == 0 {
		return counts
	}
	for _, it := range d.items[d.offsets[0]:d.offsets[d.Len()]] {
		counts[it]++
	}
	return counts
}

// FrequentItems returns, in increasing item order, the items contained in at
// least minCount transactions.
func (d *DB) FrequentItems(minCount int) []itemset.Item {
	var out []itemset.Item
	for it, c := range d.ItemCounts() {
		if c >= minCount {
			out = append(out, itemset.Item(it))
		}
	}
	return out
}

// view returns the sub-database of transactions [lo, hi) sharing this
// database's backing arrays.
func (d *DB) view(lo, hi int) *DB {
	return &DB{
		items:    d.items,
		offsets:  d.offsets[lo : hi+1],
		tids:     d.tids[lo:hi],
		days:     d.days[lo:hi],
		numItems: d.numItems,
	}
}

// SplitChronological divides the database into n local databases of nearly
// equal document counts, preserving order — the paper's "sequentially
// distributed … by assigning the articles of 16 or 17 days to each node".
// Day boundaries are respected when possible: the split point is moved to
// the nearest day boundary that keeps every part non-empty; when the
// database has no day structure (all Day==0) the split is purely by count.
// A database of fewer than n transactions leaves its leading parts empty.
// Parts are CSR views into this database's backing, not copies.
func (d *DB) SplitChronological(n int) []*DB {
	if n <= 0 {
		panic(fmt.Sprintf("txdb: SplitChronological(%d)", n))
	}
	if n == 1 {
		return []*DB{d}
	}
	// Compute day boundaries (indexes where Day changes).
	boundaries := []int{0}
	for i := 1; i < d.Len(); i++ {
		if d.days[i] != d.days[i-1] {
			boundaries = append(boundaries, i)
		}
	}
	boundaries = append(boundaries, d.Len())

	// Even count cuts, snapped to a day boundary when one is close enough
	// that every part stays non-empty and near its even share.
	maxShift := d.Len() / (4 * n)
	cuts := make([]int, 0, n+1)
	cuts = append(cuts, 0)
	for p := 1; p < n; p++ {
		target := p * d.Len() / n
		cut := target
		if b := nearestBoundary(boundaries, target); abs(b-target) <= maxShift {
			cut = b
		}
		// Keep cuts strictly increasing so every part is non-empty.
		if min := cuts[len(cuts)-1] + 1; cut < min {
			cut = min
		}
		if max := d.Len() - (n - p); cut > max {
			cut = max
		}
		// With fewer transactions than parts, the leading parts are empty.
		cut = max(cut, cuts[len(cuts)-1])
		cuts = append(cuts, cut)
	}
	cuts = append(cuts, d.Len())

	parts := make([]*DB, n)
	for p := 0; p < n; p++ {
		parts[p] = d.view(cuts[p], cuts[p+1])
	}
	return parts
}

// nearestBoundary returns the element of boundaries closest to target.
// boundaries is sorted ascending and non-empty.
func nearestBoundary(boundaries []int, target int) int {
	lo, hi := 0, len(boundaries)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if boundaries[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := boundaries[lo]
	if lo > 0 && target-boundaries[lo-1] < best-target {
		best = boundaries[lo-1]
	}
	return best
}

// Stats summarizes a database for reporting.
type Stats struct {
	Docs          int     // number of transactions
	Days          int     // number of distinct days
	UniqueItems   int     // items occurring at least once
	TotalItems    int     // sum of transaction lengths
	MeanLen       float64 // mean transaction length
	MedianDocsDay float64 // median documents per day

	// Density profile of the item-frequency distribution, relative to the
	// database's TID span — the quantities the hybrid posting layout keys on.
	TIDSpan    int     // maxTID-minTID+1
	MaxDF      int     // largest document frequency of any item
	MaxDensity float64 // MaxDF / TIDSpan
}

// ComputeStats scans the database once and returns its summary.
func (d *DB) ComputeStats() Stats {
	var s Stats
	s.Docs = d.Len()
	dfs := make([]int, d.numItems)
	perDay := make(map[int]int)
	for i := 0; i < d.Len(); i++ {
		items := d.ItemsOf(i)
		s.TotalItems += len(items)
		perDay[int(d.days[i])]++
		for _, it := range items {
			dfs[it]++
		}
	}
	s.TIDSpan = d.TIDSpan()
	for _, df := range dfs {
		if df > 0 {
			s.UniqueItems++
		}
		if df > s.MaxDF {
			s.MaxDF = df
		}
	}
	if s.TIDSpan > 0 {
		s.MaxDensity = float64(s.MaxDF) / float64(s.TIDSpan)
	}
	s.Days = len(perDay)
	if s.Docs > 0 {
		s.MeanLen = float64(s.TotalItems) / float64(s.Docs)
	}
	if len(perDay) > 0 {
		counts := make([]int, 0, len(perDay))
		for _, c := range perDay {
			counts = append(counts, c)
		}
		insertionSort(counts)
		mid := len(counts) / 2
		if len(counts)%2 == 1 {
			s.MedianDocsDay = float64(counts[mid])
		} else {
			s.MedianDocsDay = float64(counts[mid-1]+counts[mid]) / 2
		}
	}
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
