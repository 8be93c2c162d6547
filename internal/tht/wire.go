package tht

import (
	"encoding/binary"
	"fmt"
	"math"

	"pmihp/internal/itemset"
)

// Wire form of a Local, used by the TCP transport's THT exchange and by
// resume checkpoints. The encoding carries exactly what a receiving node
// needs to rebuild the segment for cascade bounds — the geometry and the
// counter rows — and lists only the non-zero slots: a retained row of
// one node's table is mostly empty (a partition hashes few TIDs per
// item), and even a saturated row costs two or three bytes per slot
// against four dense. The cost model keeps pricing the dense table
// (Bytes), as the paper does.
//
// Layout, every field an unsigned varint in its minimal encoding, so a
// segment has exactly one wire form:
//
//	entries numItems rows
//	rows × { itemGap nnz, nnz × { slotGap count } }
//
// Rows appear in ascending item order and a row's slots in ascending
// slot order. A gap is the distance from the previous item of the
// segment (slot of the row), counted from -1, so every gap is at least
// 1. nnz is the row's number of non-zero slots, 1..entries, and every
// count is at least 1: only an occurrence creates a row.

// AppendWire appends the wire encoding of the table set to b. The matrix
// holds its rows in ascending item order, which is the wire order.
func (l *Local) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(l.entries))
	b = binary.AppendUvarint(b, uint64(len(l.rowIdx)))
	b = binary.AppendUvarint(b, uint64(len(l.rowItem)))
	prev := -1
	for r, item := range l.rowItem {
		it := int(item)
		row := l.data[r*l.entries : (r+1)*l.entries]
		nnz := 0
		for _, c := range row {
			if c > 0 {
				nnz++
			}
		}
		b = binary.AppendUvarint(b, uint64(it-prev))
		b = binary.AppendUvarint(b, uint64(nnz))
		prevSlot := -1
		for j, c := range row {
			if c > 0 {
				b = binary.AppendUvarint(b, uint64(j-prevSlot))
				b = binary.AppendUvarint(b, uint64(c))
				prevSlot = j
			}
		}
		prev = it
	}
	return b
}

// DecodeWire rebuilds a Local of the session's geometry — entries slots
// per row, item ids below numItems — from its wire encoding, with its
// occupancy masks built from the decoded slots. A header naming another
// geometry is rejected before anything is allocated, and the row count
// is bounded by the blob length, so corrupt or hostile input produces an
// error, never a panic or an allocation beyond the session's own table.
func DecodeWire(b []byte, entries, numItems int) (*Local, error) {
	r := wireReader{b: b}
	gotEntries := r.uvarint(0, math.MaxUint64, "entries")
	gotItems := r.uvarint(0, math.MaxUint64, "item width")
	rows := r.uvarint(0, math.MaxUint64, "row count")
	if r.err != nil {
		return nil, r.err
	}
	if gotEntries != uint64(entries) || gotItems != uint64(numItems) {
		return nil, fmt.Errorf("tht: wire segment of %d slots × %d items, session geometry is %d × %d",
			gotEntries, gotItems, entries, numItems)
	}
	// A row takes at least four bytes: item gap, nnz, one slot gap and count.
	if rows > uint64(numItems) || rows > uint64(len(b)-r.off)/4 {
		return nil, fmt.Errorf("tht: wire segment claims %d rows in %d bytes", rows, len(b)-r.off)
	}
	l := newLocal(entries, numItems)
	n, w := int(rows), l.maskWords()
	l.rowItem = make([]itemset.Item, n)
	l.data = make([]uint32, n*entries)
	l.maskData = make([]uint64, n*w)
	l.occ = make([]int32, n)
	item := -1
	for row := 0; row < n; row++ {
		gap := r.uvarint(1, uint64(numItems-1-item), "item gap")
		nnz := r.uvarint(1, uint64(entries), "row width")
		if r.err != nil {
			return nil, fmt.Errorf("%w (row %d)", r.err, row)
		}
		item += int(gap)
		l.rowItem[row] = itemset.Item(item)
		l.rowIdx[item] = int32(row)
		counters := l.data[row*entries : (row+1)*entries]
		mask := l.maskData[row*w : (row+1)*w]
		slot := -1
		for k := uint64(0); k < nnz; k++ {
			gap := r.uvarint(1, uint64(entries-1-slot), "slot gap")
			c := r.uvarint(1, math.MaxUint32, "slot count")
			if r.err != nil {
				return nil, fmt.Errorf("%w (row %d, item %d)", r.err, row, item)
			}
			slot += int(gap)
			counters[slot] = uint32(c)
			mask[slot/64] |= 1 << (slot % 64)
		}
		l.occ[row] = int32(nnz)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("tht: %d trailing bytes after wire segment", len(b)-r.off)
	}
	return l, nil
}

// wireReader is a cursor over a wire segment. Errors are sticky: once
// one occurred, every read returns 0.
type wireReader struct {
	b   []byte
	off int
	err error
}

// uvarint reads a minimally encoded unsigned varint that must lie in
// [lo, hi].
func (r *wireReader) uvarint(lo, hi uint64, what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.err = fmt.Errorf("tht: truncated or non-minimal varint at byte %d of %d", r.off, len(r.b))
		return 0
	}
	if v < lo || v > hi {
		r.err = fmt.Errorf("tht: wire %s %d outside [%d, %d]", what, v, lo, hi)
		return 0
	}
	r.off += n
	return v
}
