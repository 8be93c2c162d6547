package tht

import (
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

// built fills db's table set with the rows of the items keep selects, as
// pass 1 does with the frequent items.
func built(db *txdb.DB, entries int, keep func(itemset.Item) bool) *Local {
	k := make([]bool, db.NumItems())
	for it := range k {
		k[it] = keep(itemset.Item(it))
	}
	return Build(db, entries, db.ItemCounts(), k)
}

// retained builds db's table set with a row for every item that occurs.
func retained(db *txdb.DB, entries int) *Local {
	return built(db, entries, func(itemset.Item) bool { return true })
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
		local, counts := retained(db, entries), db.ItemCounts()
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
// Every node's pass-2 cascaded pair probe decides and charges every pair
// it holds exactly as the general cascade bound does.
func TestCascadeBoundSound(t *testing.T) {
	db := makeDB(21, 100, 90, 10)
	parts := db.SplitChronological(4)
	locals := make([]*Local, 4)
	for i, p := range parts {
		locals[i] = retained(p, 16)
	}
	g := NewGlobal(locals)
	gens := make([]*PairGen, len(locals))
	for p := range gens {
		gens[p] = g.NewPairGen(p, 1, 1)
	}
	probed := 0
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
		if k != 2 {
			continue
		}
		for self, pg := range gens {
			i, iok := slices.BinarySearch(pg.items, x[0])
			b, bok := slices.BinarySearch(pg.items, x[1])
			if !iok || !bok {
				continue
			}
			probed++
			if pairGot, pairSlots := pg.cascadeReaches(i, b, threshold); pairGot != want || pairSlots != slots {
				t.Fatalf("node %d: cascadeReaches(%v, %d) = %v/%d slots, BoundReaches %v/%d", self, x, threshold, pairGot, pairSlots, want, slots)
			}
		}
	}
	if probed == 0 {
		t.Fatal("no pair was present at any node")
	}
}

// TestSegScanMatchesBoundReaches: the pass-2 pair kernel on one segment
// (pairBoundIdx, over two row numbers) decides and charges every pair
// exactly as Local.BoundReaches does, in the one-word geometry, in a
// multi-word one whose rows are mostly saturated (the occupancy-counter
// shortcut), and at the paper's 400 entries.
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
		for a := 0; a < tc.vocab; a++ {
			ra := local.rowIndex(itemset.Item(a))
			for b := a + 1; b < tc.vocab; b++ {
				rb := local.rowIndex(itemset.Item(b))
				x := itemset.New(uint32(a), uint32(b))
				for _, threshold := range []int{1, 2, 5, tc.entries / 2, tc.entries, 4 * tc.entries} {
					want, wantSlots := local.BoundReaches(x, threshold)
					if want != (maxPossible(local, x) >= threshold) {
						t.Fatalf("entries=%d: BoundReaches(%v, %d) = %v, maxPossible %d",
							tc.entries, x, threshold, want, maxPossible(local, x))
					}
					if sum, slots := local.pairBoundIdx(ra, rb, threshold); (sum >= threshold) != want || slots != wantSlots {
						t.Fatalf("entries=%d: pairBoundIdx(%v, %d) = %d/%d slots, BoundReaches %v/%d",
							tc.entries, x, threshold, sum, slots, want, wantSlots)
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

// TestPollPeersMatchesPerPeerBounds: PollPeers must select exactly the peers
// a per-peer BoundReaches(x, 1) loop selects, with the same total slot
// charge.
func TestPollPeersMatchesPerPeerBounds(t *testing.T) {
	locals := make([]*Local, 4)
	for s := range locals {
		locals[s] = built(makeDB(int64(s+11), 60, 300, 25), 8, func(it itemset.Item) bool { return it%3 != 0 })
	}
	g := NewGlobal(locals)
	rng := rand.New(rand.NewSource(5))
	var buf []int
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(3)
		raw := make([]uint32, k)
		for j := range raw {
			raw[j] = uint32(rng.Intn(300))
		}
		x := itemset.New(raw...)
		self := rng.Intn(4)

		var wantPeers []int
		wantSlots := 0
		for p := 0; p < g.NumSegments(); p++ {
			if p == self {
				continue
			}
			ok, slots := g.Segment(p).BoundReaches(x, 1)
			wantSlots += slots
			if ok {
				wantPeers = append(wantPeers, p)
			}
		}

		gotPeers, gotSlots := g.PollPeers(x, self, buf)
		buf = gotPeers
		if gotSlots != wantSlots {
			t.Fatalf("x=%v self=%d: slots %d, want %d", x, self, gotSlots, wantSlots)
		}
		if !slices.Equal(gotPeers, wantPeers) {
			t.Fatalf("x=%v self=%d: peers %v, want %v", x, self, gotPeers, wantPeers)
		}
	}
}

func TestRetainDropsRowsAndMasks(t *testing.T) {
	local := retained(makeDB(8, 30, 40, 6), 8)
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
// with an absent row at zero, and charges nothing for it. The pass-2
// cascaded pair probe charges nothing in a segment where a present item
// has no row.
func TestMissingRowBoundsZero(t *testing.T) {
	const absent = 999
	db := makeDB(9, 50, 60, 8)
	local := retained(db, 16)
	g := NewGlobal([]*Local{local, built(db, 16, func(it itemset.Item) bool { return it != 2 })})
	x := itemset.New(1, absent)
	r1 := local.rowIndex(1)
	for _, rows := range [][2]int32{{local.rowIndex(absent), r1}, {r1, local.rowIndex(absent)}} {
		if sum, slots := local.pairBoundIdx(rows[0], rows[1], 1); sum != 0 || slots != 0 {
			t.Fatalf("missing row admitted by the pair kernel (%d/%d slots)", sum, slots)
		}
	}
	pg := g.NewPairGen(0, 1, 1)
	i, iok := slices.BinarySearch(pg.items, 1)
	b, bok := slices.BinarySearch(pg.items, 2)
	if !iok || !bok || pg.rows[1][b] >= 0 {
		t.Fatal("items 1 and 2 must have rows in segment 0 only")
	}
	above := maxPossible(local, itemset.New(1, 2)) + 1
	want, wantSlots := local.BoundReaches(itemset.New(1, 2), above)
	if ok, slots := pg.cascadeReaches(i, b, above); ok != want || slots != wantSlots {
		t.Fatalf("cascade over a missing peer row = %v/%d slots, self segment alone %v/%d", ok, slots, want, wantSlots)
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

// TestSlotPostingsInvertRows: the slot lists hold, for every segment and
// slot, exactly the present rows that occupy the slot, ascending by
// present index and with the matrix's counters, so the list lengths sum
// to the rows' occupancy. Each row's tails name its occupied slots in
// ascending order with the list entries above it, each segment's row
// bitset names the present items with a row there, and the gate refuses
// the lists when sweeping would take one step more than allowed: the
// same-list entry pairs. The cases cover one-word and multi-word
// geometries, one to three segments, saturated rows and items absent from
// some segments.
func TestSlotPostingsInvertRows(t *testing.T) {
	saturated := 0
	for _, tc := range []struct {
		entries, docs, vocab, docLen, segs int
	}{
		{1, 20, 40, 3, 2},
		{16, 50, 60, 8, 3},
		{64, 120, 150, 6, 1},
		{65, 300, 70, 4, 2},
		{100, 400, 15, 12, 3},
		{129, 200, 200, 9, 2},
	} {
		parts := makeDB(int64(tc.entries), tc.docs, tc.vocab, tc.docLen).SplitChronological(tc.segs)
		locals := make([]*Local, tc.segs)
		for p, part := range parts {
			// Segment p misses every item whose id is p modulo 3.
			locals[p] = built(part, tc.entries, func(it itemset.Item) bool { return int(it)%3 != p })
		}
		g := NewGlobal(locals)
		present := locals[0].rowItem
		h, n := tc.entries, len(present)

		// The reference lists, segment-major, and each row's tails.
		var lists []posting
		tails := make([][]tail, tc.segs*n)
		occupancy, steps := 0, int64(0)
		for p, l := range locals {
			for j := 0; j < h; j++ {
				start := int32(len(lists))
				for i, it := range present {
					if row := l.row(it); row != nil && row[j] > 0 {
						lists = append(lists, posting{item: int32(i), count: row[j]})
					}
				}
				end := int32(len(lists))
				steps += int64(end-start) * int64(end-start-1) / 2
				for at := start; at < end; at++ {
					k := p*n + int(lists[at].item)
					tails[k] = append(tails[k], tail{at: at, end: end})
				}
			}
			for _, it := range present {
				if r := l.rowIndex(it); r >= 0 {
					occupancy += int(l.occ[r])
					if int(l.occ[r]) == h {
						saturated++
					}
				}
			}
		}
		if g.newPairGen(0, 1, 1, steps-1).post != nil {
			t.Fatalf("entries=%d: lists built within %d steps, sweeping takes %d", h, steps-1, steps)
		}
		pg := g.newPairGen(0, 1, 1, steps)
		x := pg.post
		if !slices.Equal(x.lists, lists) {
			t.Fatalf("entries=%d: lists %v, want %v", h, x.lists, lists)
		}
		if len(x.lists) != occupancy {
			t.Fatalf("entries=%d: %d list entries, rows occupy %d slots", h, len(x.lists), occupancy)
		}
		for p := range locals {
			for i := range present {
				got := pg.tails(p, i, nil)
				if !slices.Equal(got, tails[p*n+i]) {
					t.Fatalf("entries=%d: tails(%d, %d) = %v, want %v", h, p, i, got, tails[p*n+i])
				}
				for _, tl := range got {
					count, above := x.above(tl)
					if count != lists[tl.at].count || !slices.Equal(above, lists[tl.at+1:tl.end]) {
						t.Fatalf("entries=%d: above(%v) = %d, %v", h, tl, count, above)
					}
				}
			}
		}
		for p, l := range locals {
			rows := x.rowBits(p)
			if len(rows) != (n+63)/64 {
				t.Fatalf("entries=%d: rowBits(%d) has %d words for %d items", h, p, len(rows), n)
			}
			for i, it := range present {
				if got := rows[i/64]&(1<<(i%64)) != 0; got != (l.rowIndex(it) >= 0) {
					t.Fatalf("entries=%d: rowBits(%d) bit %d is %v", h, p, i, got)
				}
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no geometry has a saturated row")
	}
}

// TestNewGlobalRequiresOneWidth: a cascade's segments share one width.
func TestNewGlobalRequiresOneWidth(t *testing.T) {
	db := makeDB(5, 20, 10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("NewGlobal over segments of 8 and 9 slots should panic")
		}
	}()
	NewGlobal([]*Local{retained(db, 8), retained(db, 9)})
}
