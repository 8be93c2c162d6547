package txdb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pmihp/internal/itemset"
)

// randomTxs generates a database shape from a seed: transaction lengths,
// item ids, and day runs all vary, including empty transactions.
func randomTxs(seed int64, docs, numItems int) []Transaction {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]Transaction, docs)
	day := 0
	for i := range txs {
		if rng.Intn(4) == 0 {
			day++
		}
		n := rng.Intn(8) // empty transactions are legal
		raw := make([]uint32, n)
		for j := range raw {
			raw[j] = uint32(rng.Intn(numItems))
		}
		txs[i] = Transaction{TID: TID(i), Day: day, Items: itemset.New(raw...)}
	}
	return txs
}

// TestCSRRoundTripQuick: packing transactions into the CSR layout and
// reading them back through every accessor is lossless, for randomized
// database shapes under testing/quick.
func TestCSRRoundTripQuick(t *testing.T) {
	f := func(seed int64, docsRaw, itemsRaw uint8) bool {
		docs := int(docsRaw) % 60
		numItems := 1 + int(itemsRaw)%50
		txs := randomTxs(seed, docs, numItems)
		db := New(txs, numItems)

		if db.Len() != len(txs) || db.NumItems() != numItems {
			return false
		}
		total := 0
		wantCounts := make([]int, numItems)
		for i, tx := range txs {
			total += len(tx.Items)
			for _, it := range tx.Items {
				wantCounts[it]++
			}
			if db.TIDOf(i) != tx.TID || db.DayOf(i) != tx.Day {
				return false
			}
			got := db.ItemsOf(i)
			if len(got) != len(tx.Items) {
				return false
			}
			for j := range got {
				if got[j] != tx.Items[j] {
					return false
				}
			}
		}
		if db.TotalItems() != total {
			return false
		}
		gotCounts := db.ItemCounts()
		for it := range wantCounts {
			if gotCounts[it] != wantCounts[it] {
				return false
			}
		}
		// Each must visit the same transactions in the same order.
		i := 0
		ok := true
		db.Each(func(tx *Transaction) {
			if tx.TID != txs[i].TID || len(tx.Items) != len(txs[i].Items) {
				ok = false
			}
			i++
		})
		return ok && i == len(txs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRViewsShareBacking: split views must alias the parent's backing
// array (the layout's zero-copy promise) and report only their own share
// of it in MemBytes, with the shares summing back to the parent's total.
func TestCSRViewsShareBacking(t *testing.T) {
	db := build(120, 10, 40)
	parts := db.SplitChronological(4)

	items, _, _ := db.CSR()
	var held int64
	off := 0
	for _, p := range parts {
		pitems, poffsets, ptids := p.CSR()
		if &pitems[0] != &items[0] {
			t.Fatal("split view copied the items backing")
		}
		if len(poffsets) != p.Len()+1 || len(ptids) != p.Len() {
			t.Fatalf("view CSR arrays mis-sized: %d offsets, %d tids for %d txs",
				len(poffsets), len(ptids), p.Len())
		}
		// Offsets are absolute into the shared backing: the view's items
		// must be readable through them without translation.
		for i := 0; i < p.Len(); i++ {
			want := db.ItemsOf(off + i)
			got := p.ItemsOf(i)
			if len(got) != len(want) {
				t.Fatalf("tx %d: %d items via view, %d via parent", off+i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("tx %d item %d: %d vs %d", off+i, j, got[j], want[j])
				}
			}
		}
		off += p.Len()
		held += p.MemBytes()
	}
	// Per-view MemBytes counts the addressed item range, so the shares of a
	// full cover sum to the parent's item bytes plus the per-part overhead
	// of the offset/TID/day slices (one extra offset entry per part).
	wantItems := int64(4 * db.TotalItems())
	gotOverhead := held - wantItems - int64(12*db.Len())
	if wantOverhead := int64(4 * len(parts)); gotOverhead != wantOverhead {
		t.Fatalf("view MemBytes sum %d: overhead %d, want %d", held, gotOverhead, wantOverhead)
	}
}

// FromCSR wraps pre-built CSR arrays as a DB without copying. offsets must
// have len(tids)+1 entries, ascending, with offsets[i] ≤ offsets[i+1] ≤
// len(items); days may be nil when the corpus has no day structure.
func FromCSR(items []itemset.Item, offsets []uint32, tids []TID, days []int32, numItems int) *DB {
	if len(offsets) != len(tids)+1 {
		panic(fmt.Sprintf("txdb: FromCSR offsets len %d for %d txs", len(offsets), len(tids)))
	}
	if days == nil {
		days = make([]int32, len(tids))
	}
	return &DB{items: items, offsets: offsets, tids: tids, days: days, numItems: numItems}
}

// TestFromCSRRoundTrip: wrapping raw CSR arrays and reading them back via
// CSR() is the identity, and the wrapped database serves the same
// transactions as one built through New.
func TestFromCSRRoundTrip(t *testing.T) {
	txs := randomTxs(7, 30, 25)
	want := New(txs, 25)

	items, offsets, tids := want.CSR()
	days := make([]int32, len(txs))
	for i := range txs {
		days[i] = int32(txs[i].Day)
	}
	got := FromCSR(items, offsets, tids, days, 25)

	if got.Len() != want.Len() || got.TotalItems() != want.TotalItems() {
		t.Fatalf("FromCSR: %d txs/%d items, want %d/%d",
			got.Len(), got.TotalItems(), want.Len(), want.TotalItems())
	}
	for i := 0; i < want.Len(); i++ {
		if got.TIDOf(i) != want.TIDOf(i) || got.DayOf(i) != want.DayOf(i) {
			t.Fatalf("tx %d header mismatch", i)
		}
		a, b := got.ItemsOf(i), want.ItemsOf(i)
		if len(a) != len(b) {
			t.Fatalf("tx %d length mismatch", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("tx %d item %d mismatch", i, j)
			}
		}
	}
	gi, go_, gt := got.CSR()
	if &gi[0] != &items[0] || &go_[0] != &offsets[0] || &gt[0] != &tids[0] {
		t.Fatal("FromCSR copied its inputs")
	}
}

// TestFromCSRRejectsMismatch: the offsets/tids length invariant is checked.
func TestFromCSRRejectsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromCSR accepted mismatched offsets")
		}
	}()
	FromCSR(nil, []uint32{0, 0}, nil, nil, 1)
}
