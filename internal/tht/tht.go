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
// array index instead of a map probe, and consecutive rows share cache
// lines. Pass 1 counts the items first and then fills rows only for the
// items it keeps (Build), so the matrix is sized for the live vocabulary,
// not the whole one. Build sets the per-row occupancy masks (mask.go) that
// every bound reads as it fills the counters.
package tht

import (
	"fmt"

	"pmihp/internal/itemset"
	"pmihp/internal/txdb"
)

// Local is the TID hash table set of one processing node: one counter row
// of Entries slots per kept item that occurs in the node's local database,
// all rows backed by a single row-major matrix in ascending item order.
// Build fills one and builds the occupancy masks that every bound reads
// (DecodeWire builds them for a peer's segment).
type Local struct {
	entries int
	mw      int // maskWords(entries), cached: fetches run once per candidate pair
	// rowIdx[it] is the row number of item it in data, or -1 when the item
	// has no table. It covers the item ids below the vocabulary width.
	rowIdx []int32
	// rowItem[r] is the item owning row r — the inverse of rowIdx, in row
	// order, which is what lets Retain compact the matrix front-to-back.
	rowItem []itemset.Item
	// data is the counter matrix: row r is data[r*entries : (r+1)*entries].
	data []uint32
	// maskData is the occupancy-mask matrix (stride maskWords), row-aligned
	// with data, built by Build, Retain or DecodeWire.
	maskData []uint64
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

// newLocal returns an empty Local with the given number of hash entries
// per item and a row index covering item ids below numItems. The paper
// uses 400 entries for the global table, i.e. 400/N per node on N nodes.
func newLocal(entries, numItems int) *Local {
	if entries <= 0 {
		panic(fmt.Sprintf("tht: %d entries per table", entries))
	}
	mw := (entries + 63) / 64
	l := &Local{entries: entries, mw: mw, fast1: mw == 1, rowIdx: make([]int32, numItems)}
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

// Build fills the table set of IHP's first pass once the items are
// counted: a counter row for every item that keep selects and that occurs
// in db, in ascending item order, and the occupancy masks of those rows.
// counts are db's item counts (db.ItemCounts()) and keep is indexed by
// item id; a kept item that db does not hold gets no row. The matrix and
// its masks are sized for the kept rows before one serial scan fills them,
// so pass 1 never allocates a row it would drop ("after the first pass we
// can remove the THTs of the items which are not contained in the set of
// frequent 1-itemsets"). The hash slot — a function of the TID alone — is
// computed once per transaction, not once per occurrence, and a slot's
// mask bit and its row's occupancy are set at the slot's first increment.
func Build(db *txdb.DB, entries int, counts []int, keep []bool) *Local {
	l := newLocal(entries, db.NumItems())
	for it, c := range counts {
		if c > 0 && keep[it] {
			l.rowIdx[it] = int32(len(l.rowItem))
			l.rowItem = append(l.rowItem, itemset.Item(it))
		}
	}
	rows, w := len(l.rowItem), l.mw
	l.data = make([]uint32, rows*entries)
	l.maskData = make([]uint64, rows*w)
	l.occ = make([]int32, rows)
	items, offsets, tids := db.CSR()
	for i, tid := range tids {
		j := l.hash(tid)
		wj, bit := j/64, uint64(1)<<(j%64)
		for _, it := range items[offsets[i]:offsets[i+1]] {
			r := int(l.rowIdx[it])
			if r < 0 {
				continue
			}
			k := r*entries + j
			if l.data[k] == 0 {
				l.maskData[r*w+wj] |= bit
				l.occ[r]++
			}
			l.data[k]++
		}
	}
	return l
}

// BuildLocalShards returns db's item counts and a table with a row for
// every item that occurs in db, for a caller that picks the kept rows
// afterwards with Retain. It ignores workers. Miners call Build with the
// kept items instead, which never allocates the rows Retain would drop.
func BuildLocalShards(db *txdb.DB, entries, workers int) (*Local, []int) {
	counts := db.ItemCounts()
	all := make([]bool, len(counts))
	for it := range all {
		all[it] = true
	}
	return Build(db, entries, counts, all), counts
}

// row returns the counter array of an item, or nil when the item has no
// table (never occurred, or its table was dropped). The returned slice
// aliases the matrix and stays valid until the next Retain compaction.
func (l *Local) row(it itemset.Item) []uint32 {
	r := l.rowIndex(it)
	if r < 0 {
		return nil
	}
	lo := int(r) * l.entries
	return l.data[lo : lo+l.entries : lo+l.entries]
}

// Retain drops the table of every item for which keep returns false and
// rebuilds the occupancy masks of the rows it keeps. Surviving rows are
// compacted to the front of the matrix and the backing truncated. Pass 1
// does not need it: Build never allocates the rows it would drop.
func (l *Local) Retain(keep func(itemset.Item) bool) {
	h := l.entries
	next := 0
	for r, it := range l.rowItem {
		if !keep(it) {
			l.rowIdx[it] = -1
			continue
		}
		if next != r {
			copy(l.data[next*h:(next+1)*h], l.data[r*h:(r+1)*h])
			l.rowIdx[it] = int32(next)
			l.rowItem[next] = it
		}
		next++
	}
	l.rowItem = l.rowItem[:next]
	l.data = l.data[:next*h]
	l.BuildMasks()
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
		rows[i] = l.row(it)
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
// Every segment has the session's width: a node's share of the THT slots.
func NewGlobal(segments []*Local) *Global {
	if len(segments) == 0 {
		panic("tht: NewGlobal with no segments")
	}
	for _, seg := range segments {
		if seg.entries != segments[0].entries {
			panic(fmt.Sprintf("tht: NewGlobal with segments of %d and %d slots", segments[0].entries, seg.entries))
		}
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
