package txdb

import (
	"math/rand"
	"testing"

	"pmihp/internal/itemset"
)

// checkDayInvariants verifies the two ordering invariants every consumer
// of a DB relies on: days non-decreasing (hence day-group contiguous) and
// TIDs sequential.
func checkDayInvariants(t *testing.T, a *AppendDB, firstTID TID) {
	t.Helper()
	v := a.View()
	for i := 1; i < v.Len(); i++ {
		if v.DayOf(i) < v.DayOf(i-1) {
			t.Fatalf("tx %d day %d after day %d", i, v.DayOf(i), v.DayOf(i-1))
		}
	}
	for i := 0; i < v.Len(); i++ {
		if v.TIDOf(i) != firstTID+TID(i) {
			t.Fatalf("tx %d has TID %d, want %d", i, v.TIDOf(i), firstTID+TID(i))
		}
	}
	// Day-group contiguity, stated directly: every day's transactions form
	// exactly one run, so the number of day changes equals the number of
	// distinct days minus one.
	changes := 0
	seen := map[int]bool{}
	for i := 0; i < v.Len(); i++ {
		if i > 0 && v.DayOf(i) != v.DayOf(i-1) {
			changes++
		}
		seen[v.DayOf(i)] = true
	}
	if v.Len() > 0 && changes != len(seen)-1 {
		t.Fatalf("%d day changes for %d distinct days: a day is split", changes, len(seen))
	}
	if got := v.DayViews(); len(got) != len(seen) {
		t.Fatalf("DayViews() reports %d days, store holds %d", len(got), len(seen))
	}
}

// TestAppendProperties drives deterministic pseudo-random batch sequences
// through AppendDB and checks, after every append: ordering invariants,
// faithful item storage, DayViews/SinceDay agreement with a linear scan,
// vocabulary growth, and that earlier views are immutable snapshots.
func TestAppendProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := NewAppend(5)
		type snap struct {
			view  *DB
			items [][]itemset.Item
		}
		var snaps []snap
		var all []Transaction
		day := rng.Intn(3)
		for batchNo := 0; batchNo < 10; batchNo++ {
			n := rng.Intn(5)
			batch := make([]Transaction, 0, n)
			for i := 0; i < n; i++ {
				day += []int{0, 0, 0, 1, 1, 3}[rng.Intn(6)]
				k := 1 + rng.Intn(4)
				set := map[itemset.Item]bool{}
				for len(set) < k {
					set[itemset.Item(rng.Intn(12))] = true
				}
				items := make(itemset.Itemset, 0, k)
				for it := itemset.Item(0); int(it) < 12; it++ {
					if set[it] {
						items = append(items, it)
					}
				}
				batch = append(batch, Transaction{Day: day, Items: items})
			}
			if err := a.Append(batch); err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
			checkDayInvariants(t, a, 0)

			v := a.View()
			if v.Len() != len(all) {
				t.Fatalf("store holds %d tx, appended %d", v.Len(), len(all))
			}
			maxItem := 4
			for i, tx := range all {
				if itemset.Compare(v.ItemsOf(i), tx.Items) != 0 {
					t.Fatalf("tx %d stored as %v, appended %v", i, v.ItemsOf(i), tx.Items)
				}
				if v.DayOf(i) != tx.Day {
					t.Fatalf("tx %d stored on day %d, appended day %d", i, v.DayOf(i), tx.Day)
				}
				if n := len(tx.Items); n > 0 && int(tx.Items[n-1]) > maxItem {
					maxItem = int(tx.Items[n-1])
				}
			}
			if a.NumItems() != maxItem+1 {
				t.Fatalf("NumItems %d, want %d", a.NumItems(), maxItem+1)
			}
			lo := 0
			for _, dv := range v.DayViews() {
				d, hi := dv.DayOf(0), lo+dv.Len()
				wantLo, wantHi := -1, -1
				for i, tx := range all {
					if tx.Day == d {
						if wantLo < 0 {
							wantLo = i
						}
						wantHi = i + 1
					}
				}
				if lo != wantLo || hi != wantHi || dv.TIDOf(0) != TID(wantLo) {
					t.Fatalf("day %d view = [%d, %d), scan says [%d, %d)", d, lo, hi, wantLo, wantHi)
				}
				since := a.SinceDay(d)
				if since.Len() != len(all)-wantLo {
					t.Fatalf("SinceDay(%d) has %d tx, want %d", d, since.Len(), len(all)-wantLo)
				}
				if since.Len() > 0 && since.TIDOf(0) != TID(wantLo) {
					t.Fatalf("SinceDay(%d) starts at TID %d, want %d", d, since.TIDOf(0), wantLo)
				}
				lo = hi
			}
			snaps = append(snaps, snap{view: v, items: func() [][]itemset.Item {
				out := make([][]itemset.Item, v.Len())
				for i := range out {
					out[i] = append([]itemset.Item(nil), v.ItemsOf(i)...)
				}
				return out
			}()})
			// Every earlier view must still read exactly what it saw when
			// taken — appends never mutate committed snapshots.
			for si, s := range snaps {
				for i := range s.items {
					if itemset.Compare(s.view.ItemsOf(i), s.items[i]) != 0 {
						t.Fatalf("snapshot %d tx %d changed after later appends", si, i)
					}
				}
			}
		}
	}
}

// TestAppendRejectsWholeBatch pins the no-partial-commit contract: a
// batch with any ordering violation leaves the store byte-for-byte
// untouched.
func TestAppendRejectsWholeBatch(t *testing.T) {
	seed := []Transaction{{Day: 3, Items: itemset.Itemset{1, 2}}, {Day: 4, Items: itemset.Itemset{0, 5}}}
	bad := map[string][]Transaction{
		"day decreases within batch": {
			{Day: 6, Items: itemset.Itemset{1}}, {Day: 5, Items: itemset.Itemset{2}}},
		"batch starts before last day": {{Day: 2, Items: itemset.Itemset{1}}},
		"items not strictly increasing": {
			{Day: 7, Items: itemset.Itemset{3, 3}}},
		"items unsorted": {
			{Day: 7, Items: itemset.Itemset{4, 1}}},
		"valid then invalid": {
			{Day: 8, Items: itemset.Itemset{1}}, {Day: 8, Items: itemset.Itemset{2, 1}}},
	}
	for name, batch := range bad {
		a := NewAppend(6)
		if err := a.Append(seed); err != nil {
			t.Fatal(err)
		}
		wantLen, wantItems, wantTID := a.Len(), a.NumItems(), a.NextTID()
		if err := a.Append(batch); err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if a.Len() != wantLen || a.NumItems() != wantItems || a.NextTID() != wantTID {
			t.Errorf("%s: rejection mutated the store", name)
		}
		checkDayInvariants(t, a, 0)
	}
}

// TestNewAppendAtPreservesTIDs pins the resume contract: a store rebuilt
// at a TID base reissues the original numbering.
func TestNewAppendAtPreservesTIDs(t *testing.T) {
	a := NewAppendAt(3, 40)
	if a.NextTID() != 40 {
		t.Fatalf("NextTID %d, want 40", a.NextTID())
	}
	if err := a.Append([]Transaction{{Day: 1, Items: itemset.Itemset{0}}, {Day: 2, Items: itemset.Itemset{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	checkDayInvariants(t, a, 40)
	if a.NextTID() != 42 {
		t.Fatalf("NextTID %d after two appends, want 42", a.NextTID())
	}
}

// TestSplitRoundRobinDegenerateFallback covers the fewer-day-groups-than-
// nodes fallback directly: the round-robin split must hand back exactly
// the chronological split (same transactions on every node), so no node
// is left empty.
func TestSplitRoundRobinDegenerateFallback(t *testing.T) {
	var txs []Transaction
	tid := TID(0)
	for day := 0; day < 2; day++ { // 2 day groups, 4 nodes: degenerate
		for i := 0; i < 6; i++ {
			txs = append(txs, Transaction{TID: tid, Day: day,
				Items: itemset.Itemset{itemset.Item(i), itemset.Item(6 + day)}})
			tid++
		}
	}
	db := New(txs, 8)
	const nodes = 4
	rr := db.SplitRoundRobin(nodes)
	chrono := db.SplitChronological(nodes)
	if len(rr) != nodes || len(chrono) != nodes {
		t.Fatalf("%d round-robin parts, %d chronological, want %d", len(rr), len(chrono), nodes)
	}
	for n := 0; n < nodes; n++ {
		if rr[n].Len() == 0 {
			t.Fatalf("node %d empty under the degenerate fallback", n)
		}
		if rr[n].Len() != chrono[n].Len() {
			t.Fatalf("node %d: %d tx round-robin vs %d chronological", n, rr[n].Len(), chrono[n].Len())
		}
		for i := 0; i < rr[n].Len(); i++ {
			if rr[n].TIDOf(i) != chrono[n].TIDOf(i) ||
				itemset.Compare(rr[n].ItemsOf(i), chrono[n].ItemsOf(i)) != 0 {
				t.Fatalf("node %d tx %d differs between fallback and chronological split", n, i)
			}
		}
	}

	// Sanity: with at least as many groups as nodes the dealer is NOT the
	// chronological split — every node still gets every group position
	// i ≡ n (mod nodes).
	var wide []Transaction
	tid = 0
	for day := 0; day < 8; day++ {
		for i := 0; i < 2; i++ {
			wide = append(wide, Transaction{TID: tid, Day: day, Items: itemset.Itemset{itemset.Item(i)}})
			tid++
		}
	}
	wdb := New(wide, 4)
	parts := wdb.SplitRoundRobin(nodes)
	total := 0
	for n, p := range parts {
		total += p.Len()
		for i := 0; i < p.Len(); i++ {
			if p.DayOf(i)%nodes != n {
				t.Fatalf("node %d holds day %d; round-robin should deal day d to node d%%%d", n, p.DayOf(i), nodes)
			}
		}
	}
	if total != wdb.Len() {
		t.Fatalf("split drops transactions: %d of %d", total, wdb.Len())
	}
}
