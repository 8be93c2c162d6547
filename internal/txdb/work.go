package txdb

import "pmihp/internal/itemset"

// Work is a mutable working copy of a database used during a multipass scan.
// Transaction trimming replaces a transaction's item list with a shorter
// one; transaction pruning deactivates the transaction entirely. The
// original DB is never modified, so a Work can be Reset per item partition
// (MIHP resets trimming state when it moves to the next F1 partition,
// because earlier passes may have trimmed items that the next partition
// still needs).
//
// Like the DB it copies, Work is CSR-shaped: every transaction's (possibly
// trimmed) item list lives in one arena owned by the Work, addressed by
// per-transaction start/count arrays. Trimming compacts a transaction's
// live prefix in place within the arena, so multipass trimming allocates
// nothing and the scan stays a linear walk of one array.
type Work struct {
	db     *DB
	tids   []TID
	arena  []itemset.Item // owned backing; tx i's items = arena[start[i]:start[i]+count[i]]
	start  []uint32
	count  []uint32
	active []bool
}

// NewWork returns a working copy of db, with every transaction's items
// copied into the Work's arena in one bulk copy.
func NewWork(db *DB) *Work {
	n := db.Len()
	w := &Work{
		db:     db,
		tids:   db.tids,
		arena:  make([]itemset.Item, 0, db.TotalItems()),
		start:  make([]uint32, n),
		count:  make([]uint32, n),
		active: make([]bool, n),
	}
	w.Reset()
	return w
}

// Reset restores the Work to a fresh copy of its source database: all
// transactions active and untrimmed. Allocates nothing after NewWork.
func (w *Work) Reset() {
	n := w.db.Len()
	w.arena = w.arena[:0]
	base := uint32(0)
	if n > 0 {
		base = w.db.offsets[0]
		w.arena = append(w.arena, w.db.items[base:w.db.offsets[n]]...)
	}
	for i := 0; i < n; i++ {
		w.start[i] = w.db.offsets[i] - base
		w.count[i] = w.db.offsets[i+1] - w.db.offsets[i]
		w.active[i] = true
	}
}

// ResetFiltered restores the Work from its source database keeping only the
// items at or above first for which keep[item] is true, pruning transactions
// left with fewer than minItems kept items. It returns the total number of
// source items scanned (every transaction is read in full, exactly the cost
// a filtering pass over the original database charges). Allocates nothing
// after NewWork.
func (w *Work) ResetFiltered(first itemset.Item, keep []bool, minItems int) (scanned int64) {
	n := w.db.Len()
	src, offsets, _ := w.db.CSR()
	w.arena = w.arena[:0]
	for i := 0; i < n; i++ {
		row := src[offsets[i]:offsets[i+1]]
		scanned += int64(len(row))
		s := uint32(len(w.arena))
		for _, it := range row {
			if it >= first && keep[it] {
				w.arena = append(w.arena, it)
			}
		}
		kept := uint32(len(w.arena)) - s
		if int(kept) < minItems {
			w.arena = w.arena[:s]
			w.start[i], w.count[i] = s, 0
			w.active[i] = false
			continue
		}
		w.start[i], w.count[i] = s, kept
		w.active[i] = true
	}
	return scanned
}

// Len returns the total number of transactions, active or not.
func (w *Work) Len() int { return len(w.tids) }

// ItemsOf returns the current item list of transaction i (aliasing the
// arena), regardless of its active flag.
func (w *Work) ItemsOf(i int) itemset.Itemset {
	return w.arena[w.start[i] : w.start[i]+w.count[i]]
}

// View is the raw-array view of a Work for direct shard iteration.
type WorkView struct {
	TIDs   []TID
	Active []bool
	Start  []uint32
	Count  []uint32
	Arena  []itemset.Item
}

// Items returns transaction i's current item list from the view.
func (v WorkView) Items(i int) itemset.Itemset {
	return v.Arena[v.Start[i] : v.Start[i]+v.Count[i]]
}

// View exposes the CSR arrays for the hot counting loops: each shard
// iterates its own contiguous index range directly, with no per-transaction
// callback. The arrays are owned by the Work; shards may only Trim or
// Prune transactions inside their own range. The view is invalidated
// by Reset/ResetFiltered.
func (w *Work) View() WorkView {
	return WorkView{TIDs: w.tids, Active: w.active, Start: w.start, Count: w.count, Arena: w.arena}
}

// Each calls fn for every active transaction.
func (w *Work) Each(fn func(tid TID, items itemset.Itemset)) {
	for i := range w.tids {
		if w.active[i] {
			fn(w.tids[i], w.ItemsOf(i))
		}
	}
}

// EachIndexed calls fn for every active transaction with its internal index,
// which Trim and Prune accept.
func (w *Work) EachIndexed(fn func(i int, tid TID, items itemset.Itemset)) {
	for i := range w.tids {
		if w.active[i] {
			fn(i, w.tids[i], w.ItemsOf(i))
		}
	}
}

// Trim replaces the item list of transaction i with items, which must be
// sorted and no longer than the current list. The items are copied into the
// transaction's existing arena range (a compaction in place when items
// already aliases that range, as the miners' trim kernels arrange).
func (w *Work) Trim(i int, items itemset.Itemset) {
	if n := uint32(len(items)); n <= w.count[i] {
		dst := w.arena[w.start[i] : w.start[i]+n]
		if len(items) > 0 && &dst[0] != &items[0] {
			copy(dst, items)
		}
		w.count[i] = n
		return
	}
	panic("txdb: Trim grew a transaction")
}

// Prune deactivates transaction i; it is skipped by future Each calls. It
// writes only transaction i's flag, so concurrent shards owning disjoint
// index ranges can prune without synchronization.
func (w *Work) Prune(i int) { w.active[i] = false }

// TotalItems returns the summed length of all active transactions — the cost
// proxy for a counting scan over the working database.
func (w *Work) TotalItems() int {
	n := 0
	for i := range w.count {
		if w.active[i] {
			n += int(w.count[i])
		}
	}
	return n
}

// MemBytes returns the resident size of the arrays the Work owns. The TID
// array is a view of the source database's and is charged there, not here.
func (w *Work) MemBytes() int64 {
	return int64(4*cap(w.arena)) + int64(4*len(w.start)) + int64(4*len(w.count)) +
		int64(len(w.active))
}
