// Package tht implements the TID Hash Tables of the Inverted Hashing and
// Pruning technique (Holt & Chung, IPL 2002; section 2.2 of the IPDPS 2004
// paper).
//
// A THT for an item is a small array of counters: entry j holds the number
// of transactions whose TID hashes to j and that contain the item. For a
// candidate itemset x, summing over entries the minimum counter among x's
// items yields an upper bound on x's support (GetMaxPossibleCount in the
// paper); candidates whose bound is below the minimum support are pruned
// without a counting scan.
//
// In the parallel algorithm the global THT of an item is the *linear
// cascade* (concatenation) of the per-node local THTs rather than an
// entrywise sum. The cascade is deliberately lossless across nodes: it both
// tightens the bound and reveals exactly which peers can possibly contain an
// itemset, which drives the polling step of PMIHP.
//
// Tables are stored as one row-major counter matrix: all rows live in a
// single []uint32 with stride Entries, addressed through a dense item→row
// index. The bound evaluations that run once per candidate pair cost an
// array index instead of a map probe, consecutive rows share cache lines,
// and dropping pruned rows (Retain) compacts the matrix in place, so the
// resident table size tracks the live vocabulary, not the initial one.
package tht

import (
	"fmt"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Local is the TID hash table set of one processing node: one counter row
// of Entries slots per item that occurs in the node's local database, all
// rows backed by a single row-major matrix.
type Local struct {
	entries int
	mw      int // maskWords(entries), cached: fetches run once per candidate pair
	// rowIdx[it] is the row number of item it in data, or -1 when the item
	// has no table. The index is grown on demand to the largest item seen.
	rowIdx []int32
	// rowItem[r] is the item owning row r — the inverse of rowIdx, in row
	// order, which is what lets Retain compact the matrix front-to-back.
	rowItem []itemset.Item
	// data is the counter matrix: row r is data[r*entries : (r+1)*entries].
	data []uint32
	// maskData is the occupancy-mask matrix (stride maskWords), row-aligned
	// with data; only meaningful after BuildMasks (masksBuilt).
	maskData   []uint64
	masksBuilt bool
	// occ[r] is the number of occupied slots of row r (the popcount of its
	// mask), maintained alongside maskData. A saturated row — every slot
	// occupied, the THT signature of a stopword-grade item — lets pair
	// bounds and mask intersections answer popcount queries from this
	// counter without reading the row's mask memory (bound.go); charges
	// are unaffected.
	occ []int32
	// fast1 marks the single-mask-word geometry (entries <= 64, the
	// per-node table of a wide cluster), where pair bounds open-code the
	// one-word mask test.
	fast1 bool
}

// rowChunk is the minimum matrix growth, in rows, so the build scan
// reallocates the backing a handful of times instead of once per item.
const rowChunk = 256

// NewLocal returns an empty Local with the given number of hash entries per
// item. The paper uses 400 entries for the global table, i.e. 400/N per node
// on N nodes.
func NewLocal(entries int) *Local {
	if entries <= 0 {
		panic(fmt.Sprintf("tht: NewLocal(%d)", entries))
	}
	return &Local{entries: entries, mw: (entries + 63) / 64}
}

// NewLocalSized returns an empty Local pre-sized for item ids below
// numItems, so the build scan never grows the row index.
func NewLocalSized(entries, numItems int) *Local {
	l := NewLocal(entries)
	l.rowIdx = make([]int32, numItems)
	for i := range l.rowIdx {
		l.rowIdx[i] = -1
	}
	return l
}

// Entries returns the number of hash slots per item.
func (l *Local) Entries() int { return l.entries }

// NumItems returns the number of items that currently have a table.
func (l *Local) NumItems() int { return len(l.rowItem) }

// hash maps a TID to a slot. TIDs are assigned sequentially in document
// order, so modulo hashing spreads them uniformly.
func (l *Local) hash(tid txdb.TID) int { return int(tid) % l.entries }

// ensureItem grows the row index to cover item it.
func (l *Local) ensureItem(it itemset.Item) {
	if int(it) >= len(l.rowIdx) {
		idx := make([]int32, int(it)+1)
		copy(idx, l.rowIdx)
		for i := len(l.rowIdx); i < len(idx); i++ {
			idx[i] = -1
		}
		l.rowIdx = idx
	}
}

// addRow appends a zeroed row for item it to the matrix and returns its row
// number. Growth is amortized (doubling, at least rowChunk rows); existing
// row slices handed out by Row stay valid only until the next growth, which
// is why rows are only added during build scans and shard merges.
func (l *Local) addRow(it itemset.Item) int32 {
	r := int32(len(l.rowItem))
	l.rowItem = append(l.rowItem, it)
	l.rowIdx[it] = r
	h := l.entries
	need := len(l.data) + h
	if cap(l.data) >= need {
		// Re-slicing within capacity may expose a stale region truncated by
		// Retain; zero it explicitly.
		l.data = l.data[:need]
		clear(l.data[need-h:])
	} else {
		newCap := 2 * cap(l.data)
		if min := rowChunk * h; newCap < min {
			newCap = min
		}
		if newCap < need {
			newCap = need
		}
		nd := make([]uint32, need, newCap)
		copy(nd, l.data)
		l.data = nd
	}
	if l.masksBuilt {
		w := l.maskWords()
		mneed := len(l.maskData) + w
		if cap(l.maskData) >= mneed {
			l.maskData = l.maskData[:mneed]
			clear(l.maskData[mneed-w:])
		} else {
			nm := make([]uint64, mneed, 2*mneed)
			copy(nm, l.maskData)
			l.maskData = nm
		}
		l.occ = append(l.occ, 0)
	}
	return r
}

// AddOccurrence records that the transaction with the given TID contains the
// item. It is called while counting 1-itemsets during the first pass.
func (l *Local) AddOccurrence(it itemset.Item, tid txdb.TID) {
	l.ensureItem(it)
	r := l.rowIdx[it]
	if r < 0 {
		r = l.addRow(it)
	}
	j := l.hash(tid)
	l.data[int(r)*l.entries+j]++
	if l.masksBuilt {
		p := &l.maskData[int(r)*l.maskWords()+j/64]
		bit := uint64(1) << (j % 64)
		if *p&bit == 0 {
			*p |= bit
			l.occ[r]++
		}
	}
}

// BuildLocal scans a database once and returns the completed Local alongside
// the per-item occurrence counts (support of each 1-itemset).
func BuildLocal(db *txdb.DB, entries int) (*Local, []int) {
	return BuildLocalShards(db, entries, 1)
}

// newLocalFromCounts returns a Local whose matrix is exactly sized for the
// items with a positive count, rows in item order. The counters are zero;
// the caller fills them.
func newLocalFromCounts(entries int, counts []int) *Local {
	l := NewLocalSized(entries, len(counts))
	rows := 0
	for _, c := range counts {
		if c > 0 {
			rows++
		}
	}
	l.rowItem = make([]itemset.Item, 0, rows)
	l.data = make([]uint32, rows*entries)
	for it, c := range counts {
		if c > 0 {
			l.rowIdx[it] = int32(len(l.rowItem))
			l.rowItem = append(l.rowItem, itemset.Item(it))
		}
	}
	return l
}

// BuildLocalShards is BuildLocal with the scan sharded across up to workers
// goroutines. Each shard builds a private table over a contiguous
// transaction range; the shards merge by entrywise summation, so the result
// is identical to the serial build for every worker count. The scan walks
// the database's CSR arrays directly in two passes — item counts first, then
// counter fills into an exactly-sized matrix, so the build never grows (and
// never re-copies) the backing. The hash slot — a function of the TID alone
// — is computed once per transaction, not once per occurrence.
func BuildLocalShards(db *txdb.DB, entries, workers int) (*Local, []int) {
	n := db.Len()
	numItems := db.NumItems()
	items, offsets, tids := db.CSR()
	build := func(lo, hi int) (*Local, []int) {
		counts := make([]int, numItems)
		for _, it := range items[offsets[lo]:offsets[hi]] {
			counts[it]++
		}
		l := newLocalFromCounts(entries, counts)
		for i := lo; i < hi; i++ {
			j := l.hash(tids[i])
			for _, it := range items[offsets[i]:offsets[i+1]] {
				l.data[int(l.rowIdx[it])*entries+j]++
			}
		}
		return l, counts
	}
	// Each shard allocates and fills a whole Local for its range, so the
	// build uses the static one-range-per-shard partition: the chunk-queue
	// scheduler would construct (and merge) one table per chunk.
	shards := mining.NumStatic(n, workers)
	if shards <= 1 {
		return build(0, n)
	}
	locals := make([]*Local, shards)
	countsByShard := make([][]int, shards)
	mining.RunStatic(n, workers, func(s, lo, hi int) {
		locals[s], countsByShard[s] = build(lo, hi)
	})
	counts := countsByShard[0]
	for s := 1; s < shards; s++ {
		for it, c := range countsByShard[s] {
			counts[it] += c
		}
	}
	// The union matrix is exactly sized from the merged counts, so folding
	// the shard tables in never adds a row.
	merged := newLocalFromCounts(entries, counts)
	for _, l := range locals {
		merged.addFrom(l)
	}
	return merged, counts
}

// addFrom folds another table of the same geometry into l by entrywise
// summation (the shard merge of BuildLocalShards).
func (l *Local) addFrom(o *Local) {
	if o.entries != l.entries {
		panic("tht: addFrom entry mismatch")
	}
	h := l.entries
	for r, it := range o.rowItem {
		src := o.data[r*h : (r+1)*h]
		l.ensureItem(it)
		dr := l.rowIdx[it]
		if dr < 0 {
			dr = l.addRow(it)
		}
		dst := l.data[int(dr)*h : int(dr)*h+h]
		for j, c := range src {
			dst[j] += c
		}
	}
}

// Row returns the counter array of an item, or nil when the item has no
// table (never occurred, or its table was dropped). The returned slice
// aliases the matrix and stays valid until the next addRow growth or Retain
// compaction.
func (l *Local) Row(it itemset.Item) []uint32 {
	if int(it) >= len(l.rowIdx) {
		return nil
	}
	r := l.rowIdx[it]
	if r < 0 {
		return nil
	}
	lo := int(r) * l.entries
	return l.data[lo : lo+l.entries : lo+l.entries]
}

// mask returns the occupancy mask row of an item (nil when absent).
func (l *Local) mask(it itemset.Item) []uint64 {
	if int(it) >= len(l.rowIdx) {
		return nil
	}
	r := l.rowIdx[it]
	if r < 0 {
		return nil
	}
	w := l.maskWords()
	lo := int(r) * w
	return l.maskData[lo : lo+w : lo+w]
}

// Retain drops the table of every item for which keep returns false —
// "after the first pass we can remove the THTs of the items which are not
// contained in the set of frequent 1-itemsets", and more generally after
// pass k for items in no frequent k-itemset. Surviving rows are compacted
// to the front of the matrix and the backing truncated, so a pruned
// vocabulary actually shrinks the resident table.
func (l *Local) Retain(keep func(itemset.Item) bool) {
	h := l.entries
	w := l.maskWords()
	next := 0
	for r, it := range l.rowItem {
		if !keep(it) {
			l.rowIdx[it] = -1
			continue
		}
		if next != r {
			copy(l.data[next*h:(next+1)*h], l.data[r*h:(r+1)*h])
			if l.masksBuilt {
				copy(l.maskData[next*w:(next+1)*w], l.maskData[r*w:(r+1)*w])
				l.occ[next] = l.occ[r]
			}
			l.rowIdx[it] = int32(next)
			l.rowItem[next] = it
		}
		next++
	}
	l.rowItem = l.rowItem[:next]
	l.data = l.data[:next*h]
	if l.masksBuilt {
		l.maskData = l.maskData[:next*w]
		l.occ = l.occ[:next]
	}
}

// MaxPossible returns the IHP upper bound on the local support of the
// itemset: the sum over slots of the minimum counter among the itemset's
// items. An item without a table bounds the count at zero.
func (l *Local) MaxPossible(x itemset.Itemset) int {
	if len(x) == 0 {
		return 0
	}
	var rowsBuf [maxStackItems][]uint32
	rows, ok := l.fetchRows(x, &rowsBuf)
	if !ok {
		return 0
	}
	total := 0
	for j := 0; j < l.entries; j++ {
		min := rows[0][j]
		for i := 1; i < len(rows); i++ {
			if rows[i][j] < min {
				min = rows[i][j]
			}
		}
		total += int(min)
	}
	return total
}

// maxStackItems is the itemset size up to which bound evaluations keep their
// row pointers in a stack array instead of allocating.
const maxStackItems = 8

// fetchRows gathers the counter rows of x into buf (or a fresh slice for
// oversized itemsets); ok is false when any item has no table.
func (l *Local) fetchRows(x itemset.Itemset, buf *[maxStackItems][]uint32) (rows [][]uint32, ok bool) {
	if len(x) <= maxStackItems {
		rows = buf[:len(x)]
	} else {
		rows = make([][]uint32, len(x))
	}
	for i, it := range x {
		rows[i] = l.Row(it)
		if rows[i] == nil {
			return nil, false
		}
	}
	return rows, true
}

// Bytes is the dense size of the table set — 4 bytes per slot plus a
// 4-byte item id per row — which the cluster cost model prices for the
// THT exchange, as the paper does. The wire form (AppendWire) ships only
// the non-zero slots and is smaller.
func (l *Local) Bytes() int { return len(l.rowItem) * (4 + 4*l.entries) }

// MemBytes returns the resident size of the matrix and its indexes.
func (l *Local) MemBytes() int64 {
	return int64(4*len(l.rowIdx)) + int64(4*len(l.rowItem)) +
		int64(4*len(l.data)) + int64(8*len(l.maskData)) + int64(4*len(l.occ))
}

// Global is the cascaded global THT view of one node: the local THTs of all
// nodes in node order. Segment p corresponds to processing node p.
type Global struct {
	segments []*Local
}

// NewGlobal assembles the cascade from per-node locals, in node order.
func NewGlobal(segments []*Local) *Global {
	if len(segments) == 0 {
		panic("tht: NewGlobal with no segments")
	}
	return &Global{segments: segments}
}

// NumSegments returns the number of nodes contributing to the cascade.
func (g *Global) NumSegments() int { return len(g.segments) }

// MemBytes returns the resident size of the whole cascade — every
// segment's matrix and indexes. An observability gauge: the per-node
// metrics accounting charges only the node's own segment (the other
// segments are shared views in-process and remote tables on a cluster).
func (g *Global) MemBytes() int64 {
	var b int64
	for _, seg := range g.segments {
		b += seg.MemBytes()
	}
	return b
}

// Segment returns node p's contribution.
func (g *Global) Segment(p int) *Local { return g.segments[p] }

// MaxPossible returns the IHP upper bound on the *global* support of the
// itemset: the bound of the cascaded table, which equals the sum of the
// per-segment bounds.
func (g *Global) MaxPossible(x itemset.Itemset) int {
	total := 0
	for _, seg := range g.segments {
		total += seg.MaxPossible(x)
	}
	return total
}

// Retain drops per-item rows across every segment.
func (g *Global) Retain(keep func(itemset.Item) bool) {
	for _, seg := range g.segments {
		seg.Retain(keep)
	}
}
