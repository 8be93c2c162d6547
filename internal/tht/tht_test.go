package tht

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/txdb"
)

// makeDB builds a deterministic random database for bound-property tests.
func makeDB(seed int64, docs, vocab, docLen int) *txdb.DB {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]txdb.Transaction, docs)
	for i := range txs {
		seen := map[itemset.Item]struct{}{}
		for len(seen) < docLen {
			seen[itemset.Item(rng.Intn(vocab))] = struct{}{}
		}
		items := make(itemset.Itemset, 0, docLen)
		for it := range seen {
			items = append(items, it)
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(items...)}
	}
	return txdb.New(txs, vocab)
}

// retained builds db's table set and keeps every row, so its masks are
// built — the table a miner bounds with after the post-pass-1 Retain.
func retained(db *txdb.DB, entries int) *Local {
	l, _ := BuildLocalShards(db, entries, 1)
	l.Retain(func(itemset.Item) bool { return true })
	return l
}

func support(db *txdb.DB, x itemset.Itemset) int {
	n := 0
	db.Each(func(t *txdb.Transaction) {
		if x.SubsetOf(t.Items) {
			n++
		}
	})
	return n
}

// maxPossible is the IHP upper bound on the local support of x by its
// definition — GetMaxPossibleCount: the sum over slots of the minimum
// counter among x's items, zero when an item has no table. It reads the
// counters only, and is the reference the threshold-bounded entry points
// are tested against.
func maxPossible(l *Local, x itemset.Itemset) int {
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

// cascadeMaxPossible is the bound of the cascaded table by its definition:
// the slot-minimum sum over the concatenation of every segment's rows,
// where an item without a row in a segment reads as zeros there.
func cascadeMaxPossible(g *Global, x itemset.Itemset) int {
	if len(x) == 0 {
		return 0
	}
	total := 0
	for _, seg := range g.segments {
		for j := 0; j < seg.entries; j++ {
			min := ^uint32(0)
			for _, it := range x {
				c := uint32(0)
				if row := seg.row(it); row != nil {
					c = row[j]
				}
				if c < min {
					min = c
				}
			}
			total += int(min)
		}
	}
	return total
}

// TestMaxPossibleIsUpperBound is the central IHP soundness property: the
// bound never undershoots the true support, for any itemset and table size.
func TestMaxPossibleIsUpperBound(t *testing.T) {
	for _, entries := range []int{1, 3, 16, 50, 400} {
		db := makeDB(int64(entries), 80, 120, 12)
		local, counts := BuildLocalShards(db, entries, 1)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 300; trial++ {
			k := 1 + rng.Intn(3)
			raw := make([]uint32, k)
			for j := range raw {
				raw[j] = uint32(rng.Intn(120))
			}
			x := itemset.New(raw...)
			bound := maxPossible(local, x)
			sup := support(db, x)
			if bound < sup {
				t.Fatalf("entries=%d: maxPossible(%v)=%d < support %d", entries, x, bound, sup)
			}
			if len(x) == 1 && bound != counts[x[0]] {
				t.Fatalf("1-itemset bound %d != count %d", bound, counts[x[0]])
			}
		}
	}
}

// TestBoundReachesAgreesWithMaxPossible: the early-exit decision must equal
// the full bound comparison.
func TestBoundReachesAgreesWithMaxPossible(t *testing.T) {
	db := makeDB(5, 60, 100, 10)
	local := retained(db, 32)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(3)
		raw := make([]uint32, k)
		for j := range raw {
			raw[j] = uint32(rng.Intn(100))
		}
		x := itemset.New(raw...)
		threshold := 1 + rng.Intn(6)
		want := maxPossible(local, x) >= threshold
		got, _ := local.BoundReaches(x, threshold)
		if got != want {
			t.Fatalf("BoundReaches(%v, %d) = %v, maxPossible = %d", x, threshold, got, maxPossible(local, x))
		}
	}
}

// TestCascadeBoundSound: the global bound over a split database equals
// the sum of per-segment bounds, and still upper-bounds the global support.
// The pass-2 pair scan decides and charges every pair exactly as the
// general cascade bound does.
func TestCascadeBoundSound(t *testing.T) {
	db := makeDB(21, 100, 90, 10)
	parts := db.SplitChronological(4)
	locals := make([]*Local, 4)
	for i, p := range parts {
		locals[i] = retained(p, 16)
	}
	g := NewGlobal(locals)
	ps := g.NewPairScan(identityUniverse(90))
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(3)
		raw := make([]uint32, k)
		for j := range raw {
			raw[j] = uint32(rng.Intn(90))
		}
		x := itemset.New(raw...)
		sum := 0
		for _, l := range locals {
			sum += maxPossible(l, x)
		}
		if got := cascadeMaxPossible(g, x); got != sum {
			t.Fatalf("cascade bound of %v = %d, segment sum %d", x, got, sum)
		}
		if sup := support(db, x); sum < sup {
			t.Fatalf("cascade bound %d < support %d for %v", sum, sup, x)
		}
		threshold := 1 + rng.Intn(5)
		want := sum >= threshold
		got, slots := g.BoundReaches(x, threshold)
		if got != want {
			t.Fatalf("cascade BoundReaches(%v, %d) = %v, want %v", x, threshold, got, want)
		}
		if k == 2 {
			ps.Hoist(int(x[0]))
			if pairGot, pairSlots := ps.BoundReaches(int(x[1]), threshold); pairGot != want || pairSlots != slots {
				t.Fatalf("PairScan(%v, %d) = %v/%d slots, BoundReaches %v/%d", x, threshold, pairGot, pairSlots, want, slots)
			}
		}
	}
}

// TestSegScanMatchesBoundReaches: the pass-2 pair kernel on one segment
// decides and charges every pair exactly as Local.BoundReaches does, in
// the one-word geometry, in a multi-word one whose rows are mostly
// saturated (the occupancy-counter shortcut), and at the paper's 400
// entries.
func TestSegScanMatchesBoundReaches(t *testing.T) {
	for _, tc := range []struct {
		entries, docs, vocab, docLen int
	}{
		{16, 50, 60, 8},
		{100, 400, 15, 12},
		{400, 300, 60, 20},
	} {
		local := retained(makeDB(int64(tc.entries), tc.docs, tc.vocab, tc.docLen), tc.entries)
		saturated := 0
		for _, n := range local.occ {
			if int(n) == tc.entries {
				saturated++
			}
		}
		if tc.entries == 100 && saturated == 0 {
			t.Fatal("no saturated row in the saturated geometry")
		}
		ps := NewGlobal([]*Local{local}).NewPairScan(identityUniverse(tc.vocab))
		for a := 0; a < tc.vocab; a++ {
			ps.Hoist(a)
			seg := ps.Seg(0)
			for b := a + 1; b < tc.vocab; b++ {
				x := itemset.New(uint32(a), uint32(b))
				for _, threshold := range []int{1, 2, 5, tc.entries / 2, tc.entries, 4 * tc.entries} {
					want, wantSlots := local.BoundReaches(x, threshold)
					if want != (maxPossible(local, x) >= threshold) {
						t.Fatalf("entries=%d: BoundReaches(%v, %d) = %v, maxPossible %d",
							tc.entries, x, threshold, want, maxPossible(local, x))
					}
					if got, slots := seg.BoundReaches(b, threshold); got != want || slots != wantSlots {
						t.Fatalf("entries=%d: SegScan(%v, %d) = %v/%d slots, BoundReaches %v/%d",
							tc.entries, x, threshold, got, slots, want, wantSlots)
					}
				}
			}
		}
	}
}

// TestPositivePeersComplete: PollPeers must report every peer whose local
// database contains the itemset.
func TestPositivePeersComplete(t *testing.T) {
	db := makeDB(77, 120, 80, 9)
	parts := db.SplitChronological(4)
	locals := make([]*Local, 4)
	for i, p := range parts {
		locals[i] = retained(p, 8)
	}
	g := NewGlobal(locals)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		a, b := uint32(rng.Intn(80)), uint32(rng.Intn(80))
		if a == b {
			continue
		}
		x := itemset.New(a, b)
		peers, _ := g.PollPeers(x, 0, nil)
		reported := map[int]bool{}
		for _, p := range peers {
			reported[p] = true
		}
		for i := 1; i < 4; i++ {
			if support(parts[i], x) > 0 && !reported[i] {
				t.Fatalf("peer %d holds %v but was not reported", i, x)
			}
		}
	}
}

func TestRetainDropsRowsAndMasks(t *testing.T) {
	db := makeDB(8, 30, 40, 6)
	local, _ := BuildLocalShards(db, 8, 1)
	local.Retain(func(it itemset.Item) bool { return it%2 == 0 })
	for it := itemset.Item(0); it < 40; it++ {
		if it%2 == 0 {
			continue
		}
		if local.row(it) != nil || local.rowIndex(it) >= 0 {
			t.Fatalf("odd item %d retained", it)
		}
	}
	for _, it := range local.rowItem {
		if it%2 != 0 {
			t.Fatalf("odd item %d kept a row", it)
		}
	}
	// The masks are built for exactly the kept rows.
	if len(local.maskData) != local.NumItems()*local.maskWords() || len(local.occ) != local.NumItems() {
		t.Fatalf("%d mask words and %d occupancy counters for %d rows", len(local.maskData), len(local.occ), local.NumItems())
	}
	requireMasks(t, local)
	// Dropped items bound any superset at zero.
	if got := maxPossible(local, itemset.New(1, 2)); got != 0 {
		t.Fatalf("bound with dropped item = %d", got)
	}
	if ok, slots := local.BoundReaches(itemset.New(1, 2), 1); ok || slots != 0 {
		t.Fatalf("BoundReaches with dropped item = %v/%d slots", ok, slots)
	}
}

func TestBytesAccounting(t *testing.T) {
	db := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2)},
		{TID: 1, Items: itemset.New(2)},
	}, 4)
	l, _ := BuildLocalShards(db, 10, 1)
	if l.Bytes() != 2*(4+40) {
		t.Fatalf("Bytes = %d", l.Bytes())
	}
	l.Retain(func(it itemset.Item) bool { return it == 2 })
	if l.Bytes() != 4+40 {
		t.Fatalf("Bytes after Retain = %d", l.Bytes())
	}
	l.Retain(func(itemset.Item) bool { return false })
	if l.Bytes() != 0 {
		t.Fatal("empty table has bytes")
	}
}

func TestNewLocalPanicsOnBadEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newLocal(0, 1) should panic")
		}
	}()
	newLocal(0, 1)
}

// TestMissingRowBoundsZero: every bound entry point bounds an itemset
// with an absent row at zero, and charges nothing for it.
func TestMissingRowBoundsZero(t *testing.T) {
	const absent = 999
	db := makeDB(9, 50, 60, 8)
	local := retained(db, 16)
	g := NewGlobal([]*Local{local, retained(db, 16)})
	universe := append(identityUniverse(60), absent)
	ps := g.NewPairScan(universe)
	x := itemset.New(1, absent)
	for _, hoist := range [][2]int{{len(universe) - 1, 1}, {1, len(universe) - 1}} {
		ps.Hoist(hoist[0])
		if ok, slots := ps.BoundReaches(hoist[1], 1); ok || slots != 0 {
			t.Fatalf("missing row admitted by the pair scan (%v/%d slots)", ok, slots)
		}
		if ok, slots := ps.Seg(0).BoundReaches(hoist[1], 1); ok || slots != 0 {
			t.Fatalf("missing row admitted by the segment scan (%v/%d slots)", ok, slots)
		}
	}
	if ok, slots := local.BoundReaches(x, 1); ok || slots != 0 {
		t.Fatalf("missing row admitted by BoundReaches (%v/%d slots)", ok, slots)
	}
	if ok, slots := g.BoundReaches(x, 1); ok || slots != 0 {
		t.Fatalf("missing row admitted by the cascade (%v/%d slots)", ok, slots)
	}
	if peers, slots := g.PollPeers(x, 0, nil); len(peers) != 0 || slots != 0 {
		t.Fatalf("missing row polled peers %v (%d slots)", peers, slots)
	}
}

// identityUniverse returns the items 0..n-1, so universe positions are
// item ids.
func identityUniverse(n int) []itemset.Item {
	u := make([]itemset.Item, n)
	for i := range u {
		u[i] = itemset.Item(i)
	}
	return u
}

func TestGlobalAccessors(t *testing.T) {
	db := makeDB(4, 40, 30, 6)
	parts := db.SplitChronological(2)
	l0, l1 := retained(parts[0], 8), retained(parts[1], 8)
	g := NewGlobal([]*Local{l0, l1})
	if g.NumSegments() != 2 || g.Segment(1) != l1 {
		t.Fatal("segment accessors wrong")
	}
	if l0.Entries() != 8 || l0.NumItems() == 0 {
		t.Fatal("local accessors wrong")
	}
	for p := 0; p < g.NumSegments(); p++ {
		g.Segment(p).Retain(func(it itemset.Item) bool { return false })
	}
	if l0.NumItems() != 0 || l1.NumItems() != 0 {
		t.Fatal("per-segment Retain did not drop rows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGlobal with no segments should panic")
		}
	}()
	NewGlobal(nil)
}

// TestSlotIndexMeetsExactly: the slot index's union for an outer index
// lists, ascending, exactly the later present positions whose masks meet
// the outer row's, across one-word and multi-word geometries, saturated
// rows (whose union is every later position) and universes with absent
// items.
func TestSlotIndexMeetsExactly(t *testing.T) {
	saturated := 0
	for _, tc := range []struct {
		entries, docs, vocab, docLen int
	}{
		{1, 20, 40, 3},
		{16, 50, 60, 8},
		{64, 120, 150, 6},
		{65, 300, 70, 4},
		{100, 400, 15, 12},
		{129, 200, 200, 9},
	} {
		local := retained(makeDB(int64(tc.entries), tc.docs, tc.vocab, tc.docLen), tc.entries)
		// Every third item is missing from the universe's table view.
		local.Retain(func(it itemset.Item) bool { return it%3 != 0 })
		ps := NewGlobal([]*Local{local}).NewPairScan(identityUniverse(tc.vocab))
		var present []int32
		for pos := 0; pos < tc.vocab; pos++ {
			if ps.Present(0, pos) {
				present = append(present, int32(pos))
			}
		}
		si := ps.NewSlotIndex(0, present)
		if si.MaskWords() != local.mw {
			t.Fatalf("entries=%d: MaskWords %d, want %d", tc.entries, si.MaskWords(), local.mw)
		}
		w := local.mw
		var buf []uint64
		for i, pa := range present {
			ra := int(local.rowIdx[pa])
			if int(local.occ[ra]) == tc.entries {
				saturated++
			}
			var want []int
			for k := i + 1; k < len(present); k++ {
				rb := int(local.rowIdx[present[k]])
				for j := 0; j < w; j++ {
					if local.maskData[ra*w+j]&local.maskData[rb*w+j] != 0 {
						want = append(want, k)
						break
					}
				}
			}
			var union []uint64
			var base int
			union, base = si.Meets(i, buf)
			buf = union
			var got []int
			for k, v := range union {
				for ; v != 0; v &= v - 1 {
					got = append(got, (base+k)*64+bits.TrailingZeros64(v))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("entries=%d: Meets(%d) = %v, want %v", tc.entries, i, got, want)
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no geometry has a saturated row")
	}
}
