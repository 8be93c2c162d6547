package txdb

import "fmt"

// AppendDB is the growable form of the CSR transaction store: a live
// document stream appends batches at the tail while zero-copy views over
// any committed prefix or day suffix keep serving miners. It preserves the
// two ordering invariants every consumer of a DB relies on:
//
//   - TIDs ascend in database order (assigned sequentially by Append, so
//     TIDSpan and the posting bitmaps stay one subtraction);
//   - days are non-decreasing, making every day a contiguous run of
//     transactions ("day-group contiguity") — the structure the
//     chronological splitters, the skew partitioners, and the sliding
//     window of internal/streammine all index by.
//
// Views returned by View/SinceDay alias the arrays committed at call time;
// a later Append that grows the backing never mutates them (append-only
// writes land past every existing view's length, and reallocation leaves
// old views on the old backing). Evicting a day from a window does not
// reclaim its storage — the store is an append log; compaction, when a
// deployment needs it, is a rebuild through New on a SinceDay view.
type AppendDB struct {
	db      DB
	lastDay int32
	tidBase TID
}

// NewAppend returns an empty appendable store. numItems is the initial
// vocabulary size; Append grows it automatically when a batch carries a
// larger item id (a live stream coins new words).
func NewAppend(numItems int) *AppendDB {
	a := &AppendDB{}
	a.db.numItems = numItems
	a.db.offsets = make([]uint32, 1)
	return a
}

// NewAppendAt is NewAppend with the TID sequence starting at first instead
// of 0. A resumed stream checkpoint restores only its window's
// transactions; starting the sequence at the window's original first TID
// keeps every restored transaction's identity — and therefore every view —
// identical to the uninterrupted run's.
func NewAppendAt(numItems int, first TID) *AppendDB {
	a := NewAppend(numItems)
	a.tidBase = first
	return a
}

// Len returns the number of committed transactions.
func (a *AppendDB) Len() int { return a.db.Len() }

// NumItems returns the current vocabulary size (grows with appends).
func (a *AppendDB) NumItems() int { return a.db.numItems }

// NextTID returns the TID the next appended transaction will receive.
func (a *AppendDB) NextTID() TID { return a.tidBase + TID(a.db.Len()) }

// Append commits a batch of transactions to the tail of the store,
// assigning TIDs sequentially (the TID field of the input is ignored; the
// store is the TID authority, exactly like text.ToDB at corpus build).
// The batch's days must be non-decreasing and its first day must not
// precede the store's last day, so day-group contiguity survives every
// append; a violating batch is rejected whole — no partial commit.
// Item ids beyond the current vocabulary grow NumItems.
func (a *AppendDB) Append(txs []Transaction) error {
	if len(txs) == 0 {
		return nil
	}
	day := a.lastDay
	if a.db.Len() == 0 {
		day = int32(txs[0].Day)
	}
	maxItem := -1
	for i := range txs {
		d := int32(txs[i].Day)
		if d < day {
			return fmt.Errorf("txdb: Append out of order: tx %d has day %d after day %d", i, d, day)
		}
		day = d
		if !txs[i].Items.Valid() {
			return fmt.Errorf("txdb: Append tx %d items not strictly increasing", i)
		}
		if n := len(txs[i].Items); n > 0 && int(txs[i].Items[n-1]) > maxItem {
			maxItem = int(txs[i].Items[n-1])
		}
	}
	for i := range txs {
		a.db.items = append(a.db.items, txs[i].Items...)
		a.db.offsets = append(a.db.offsets, uint32(len(a.db.items)))
		a.db.tids = append(a.db.tids, a.tidBase+TID(len(a.db.tids)))
		a.db.days = append(a.db.days, int32(txs[i].Day))
	}
	a.lastDay = day
	if maxItem >= a.db.numItems {
		a.db.numItems = maxItem + 1
	}
	return nil
}

// View returns a zero-copy DB over every committed transaction. The view
// is a stable snapshot: later appends never change what it addresses.
func (a *AppendDB) View() *DB {
	n := a.db.Len()
	return &DB{
		items:    a.db.items[:a.db.offsets[n]],
		offsets:  a.db.offsets[:n+1],
		tids:     a.db.tids[:n],
		days:     a.db.days[:n],
		numItems: a.db.numItems,
	}
}

// SinceDay returns a zero-copy view of the transactions with Day >= day —
// the sliding window's working set. Day-group contiguity makes it one
// binary search for the first qualifying transaction.
func (a *AppendDB) SinceDay(day int) *DB {
	lo := a.searchDay(int32(day))
	n := a.db.Len()
	return &DB{
		items:    a.db.items[:a.db.offsets[n]],
		offsets:  a.db.offsets[lo : n+1],
		tids:     a.db.tids[lo:n],
		days:     a.db.days[lo:n],
		numItems: a.db.numItems,
	}
}

// searchDay returns the index of the first transaction with Day >= day.
func (a *AppendDB) searchDay(day int32) int {
	lo, hi := 0, a.db.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if a.db.days[mid] < day {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MemBytes reports the resident size of the committed arrays, by the same
// accounting as DB.MemBytes.
func (a *AppendDB) MemBytes() int64 { return a.db.MemBytes() }
