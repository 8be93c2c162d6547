package tht

import (
	"math/rand"
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

func support(db *txdb.DB, x itemset.Itemset) int {
	n := 0
	db.Each(func(t *txdb.Transaction) {
		if x.SubsetOf(t.Items) {
			n++
		}
	})
	return n
}

// TestMaxPossibleIsUpperBound is the central IHP soundness property: the
// bound never undershoots the true support, for any itemset and table size.
func TestMaxPossibleIsUpperBound(t *testing.T) {
	for _, entries := range []int{1, 3, 16, 50, 400} {
		db := makeDB(int64(entries), 80, 120, 12)
		local, counts := BuildLocal(db, entries)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 300; trial++ {
			k := 1 + rng.Intn(3)
			raw := make([]uint32, k)
			for j := range raw {
				raw[j] = uint32(rng.Intn(120))
			}
			x := itemset.New(raw...)
			bound := local.MaxPossible(x)
			sup := support(db, x)
			if bound < sup {
				t.Fatalf("entries=%d: MaxPossible(%v)=%d < support %d", entries, x, bound, sup)
			}
			if len(x) == 1 && bound != counts[x[0]] {
				t.Fatalf("1-itemset bound %d != count %d", bound, counts[x[0]])
			}
		}
	}
}

// TestBoundReachesAgreesWithMaxPossible: the early-exit decision must equal
// the full bound comparison, with and without masks.
func TestBoundReachesAgreesWithMaxPossible(t *testing.T) {
	db := makeDB(5, 60, 100, 10)
	for _, withMasks := range []bool{false, true} {
		local, _ := BuildLocal(db, 32)
		if withMasks {
			local.BuildMasks()
		}
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 500; trial++ {
			k := 1 + rng.Intn(3)
			raw := make([]uint32, k)
			for j := range raw {
				raw[j] = uint32(rng.Intn(100))
			}
			x := itemset.New(raw...)
			threshold := 1 + rng.Intn(6)
			want := local.MaxPossible(x) >= threshold
			got, _ := local.BoundReaches(x, threshold)
			if got != want {
				t.Fatalf("masks=%v: BoundReaches(%v, %d) = %v, MaxPossible = %d",
					withMasks, x, threshold, got, local.MaxPossible(x))
			}
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
		locals[i], _ = BuildLocal(p, 16)
		locals[i].BuildMasks()
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
			sum += l.MaxPossible(x)
		}
		if got := g.MaxPossible(x); got != sum {
			t.Fatalf("cascade MaxPossible(%v) = %d, segment sum %d", x, got, sum)
		}
		if sup := support(db, x); g.MaxPossible(x) < sup {
			t.Fatalf("cascade bound %d < support %d for %v", g.MaxPossible(x), sup, x)
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

// TestPositivePeersComplete: PollPeers must report every peer whose local
// database contains the itemset.
func TestPositivePeersComplete(t *testing.T) {
	db := makeDB(77, 120, 80, 9)
	parts := db.SplitChronological(4)
	locals := make([]*Local, 4)
	for i, p := range parts {
		locals[i], _ = BuildLocal(p, 8)
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
	local, _ := BuildLocal(db, 8)
	local.BuildMasks()
	local.Retain(func(it itemset.Item) bool { return it%2 == 0 })
	for it := itemset.Item(0); it < 40; it++ {
		row, mask := local.Row(it), local.Mask(it)
		if it%2 == 0 {
			continue
		}
		if row != nil || mask != nil {
			t.Fatalf("odd item %d retained (row=%v mask=%v)", it, row != nil, mask != nil)
		}
	}
	// Dropped items bound any superset at zero.
	if got := local.MaxPossible(itemset.New(1, 2)); got != 0 {
		t.Fatalf("bound with dropped item = %d", got)
	}
}

func TestMasksStayInSyncAfterAdd(t *testing.T) {
	l := NewLocal(16)
	l.BuildMasks()
	l.AddOccurrence(5, 3)
	if m := l.Mask(5); m == nil || m[0] != 1<<3 {
		t.Fatalf("mask %v after AddOccurrence(5, tid 3), want slot 3 set", m)
	}
	ok, _ := l.BoundReaches(itemset.New(5), 1)
	if !ok {
		t.Fatal("bound lost occurrence")
	}
}

func TestBytesAccounting(t *testing.T) {
	l := NewLocal(10)
	if l.Bytes() != 0 {
		t.Fatal("empty table has bytes")
	}
	l.AddOccurrence(1, 0)
	l.AddOccurrence(2, 0)
	if l.Bytes() != 2*(4+40) {
		t.Fatalf("Bytes = %d", l.Bytes())
	}
}

func TestNewLocalPanicsOnBadEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLocal(0) should panic")
		}
	}()
	NewLocal(0)
}

func TestMasklessBoundPaths(t *testing.T) {
	// Exercise the linear-scan fallbacks (no BuildMasks call): the pair
	// scan must decide and charge as the general bound does.
	db := makeDB(9, 50, 60, 8)
	local, _ := BuildLocal(db, 16)
	universe := append(identityUniverse(60), 999)
	ps := NewGlobal([]*Local{local}).NewPairScan(universe)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		a, b := uint32(rng.Intn(60)), uint32(rng.Intn(60))
		if a == b {
			continue
		}
		x := itemset.New(a, b)
		threshold := 1 + rng.Intn(4)
		want := local.MaxPossible(x) >= threshold
		got, wantSlots := local.BoundReaches(x, threshold)
		if got != want {
			t.Fatalf("maskless bound (%d,%d,%d) = %v", a, b, threshold, got)
		}
		ps.Hoist(int(a))
		if got, slots := ps.Seg(0).BoundReaches(int(b), threshold); got != want || slots != wantSlots {
			t.Fatalf("maskless pair scan (%d,%d,%d) = %v/%d slots, want %v/%d", a, b, threshold, got, slots, want, wantSlots)
		}
	}
	// Missing rows bound at zero in every entry point.
	ps.Hoist(len(universe) - 1)
	if ok, _ := ps.BoundReaches(1, 1); ok {
		t.Fatal("missing row admitted by the pair scan")
	}
	if ok, _ := local.BoundReaches(itemset.New(999), 1); ok {
		t.Fatal("missing row admitted by BoundReaches")
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
	l0, _ := BuildLocal(parts[0], 8)
	l1, _ := BuildLocal(parts[1], 8)
	g := NewGlobal([]*Local{l0, l1})
	if g.NumSegments() != 2 || g.Segment(1) != l1 {
		t.Fatal("segment accessors wrong")
	}
	if l0.Entries() != 8 || l0.NumItems() == 0 {
		t.Fatal("local accessors wrong")
	}
	g.Retain(func(it itemset.Item) bool { return false })
	if l0.NumItems() != 0 || l1.NumItems() != 0 {
		t.Fatal("global Retain did not drop rows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGlobal with no segments should panic")
		}
	}()
	NewGlobal(nil)
}
