package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// naiveIntersect is the reference linear merge the galloping path must match.
func naiveIntersect(a, b []txdb.TID) []txdb.TID {
	var out []txdb.TID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func randomTIDList(rng *rand.Rand, n, space int) []txdb.TID {
	seen := map[txdb.TID]bool{}
	for len(seen) < n {
		seen[txdb.TID(rng.Intn(space))] = true
	}
	out := make([]txdb.TID, 0, n)
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestIntersectIntoMatchesNaive: galloping and merge paths agree with the
// reference merge on randomized ascending duplicate-free lists, across skews
// on both sides of the galloping threshold.
func TestIntersectIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		na := 1 + rng.Intn(40)
		// Sweep nb across the gallop threshold: some trials merge linearly,
		// some gallop.
		nb := na + rng.Intn(na*2*gallopSkew)
		space := nb*3 + 10
		a := randomTIDList(rng, na, space)
		b := randomTIDList(rng, nb, space)
		want := naiveIntersect(a, b)
		got := intersectInto(nil, a, b)
		if len(got) != len(want) {
			t.Fatalf("trial %d (|a|=%d |b|=%d): got %d matches, want %d", trial, na, nb, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestIntersectIntoInvariants: empty, disjoint, identical, and singleton
// inputs behave like set intersection, and the output is ascending and
// duplicate-free.
func TestIntersectIntoInvariants(t *testing.T) {
	if got := intersectInto(nil, nil, []txdb.TID{1, 2, 3}); len(got) != 0 {
		t.Fatalf("empty ∩ list = %v", got)
	}
	if got := intersectInto(nil, []txdb.TID{7}, []txdb.TID{1, 2, 3, 4, 5, 6, 7, 8}); len(got) != 1 || got[0] != 7 {
		t.Fatalf("singleton hit = %v", got)
	}
	if got := intersectInto(nil, []txdb.TID{9}, []txdb.TID{1, 2, 3}); len(got) != 0 {
		t.Fatalf("singleton miss = %v", got)
	}
	a := []txdb.TID{2, 4, 6, 8}
	if got := intersectInto(nil, a, a); len(got) != len(a) {
		t.Fatalf("self intersection = %v", got)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		x := randomTIDList(rng, 1+rng.Intn(20), 500)
		y := randomTIDList(rng, 1+rng.Intn(400), 500)
		got := intersectInto(nil, x, y)
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("output not strictly ascending: %v", got)
			}
		}
	}
}

// TestIntersectItemMatchesSeedMerge: the skip-galloping intersection over
// compressed posting blocks must produce exactly the intersection the seed
// implementation's linear merge produced, on a real corpus, for random item
// pairs in both orientations and through chained multi-item intersections.
func TestIntersectItemMatchesSeedMerge(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	m := mining.NewMetrics("test")
	// All-compressed layout: this test targets the block×block kernel, which
	// only runs for block-encoded items.
	p := buildPostings(db, &m, 1, math.Inf(1))
	rng := rand.New(rand.NewSource(97))

	pick := func() itemset.Item { return itemset.Item(rng.Intn(db.NumItems())) }
	for trial := 0; trial < 600; trial++ {
		a, b := pick(), pick()
		rowA, rowB := p.row(a), p.row(b)
		if len(rowA) == 0 || len(rowB) == 0 {
			continue
		}
		want := naiveIntersect(rowA, rowB)
		for _, o := range []struct {
			acc []txdb.TID
			it  itemset.Item
		}{{rowA, b}, {rowB, a}} {
			got := p.intersectItem(nil, o.acc, o.it, &p.scratch.blockBuf)
			if len(got) != len(want) {
				t.Fatalf("trial %d items (%d,%d): %d matches, want %d",
					trial, a, b, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d items (%d,%d): mismatch at %d: %d vs %d",
						trial, a, b, i, got[i], want[i])
				}
			}
		}
	}

	// Chained intersections: the accumulator shrinks across 3-4 lists, so
	// later rounds probe the compressed blocks with sparse survivors.
	for trial := 0; trial < 200; trial++ {
		acc := p.row(pick())
		for n := 0; n < 1+rng.Intn(3) && len(acc) > 0; n++ {
			it := pick()
			want := naiveIntersect(acc, p.row(it))
			acc = p.intersectItem(nil, acc, it, &p.scratch.blockBuf)
			if len(acc) != len(want) {
				t.Fatalf("trial %d chain: %d matches, want %d", trial, len(acc), len(want))
			}
			for i := range acc {
				if acc[i] != want[i] {
					t.Fatalf("trial %d chain: mismatch at %d", trial, i)
				}
			}
		}
	}
}

// oldCountCharge reproduces the seed implementation's merge-work charge
// (comparison loop plus unpaired tails) for a posting intersection, so the
// closed-form charge of the galloping implementation can be checked against
// it exactly.
func oldCountCharge(rows [][]txdb.TID) int64 {
	sorted := make([][]txdb.TID, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	acc := sorted[0]
	ops := int64(0)
	for _, row := range sorted[1:] {
		next := make([]txdb.TID, 0, len(acc))
		i, j := 0, 0
		for i < len(acc) && j < len(row) {
			ops++
			switch {
			case acc[i] < row[j]:
				i++
			case acc[i] > row[j]:
				j++
			default:
				next = append(next, acc[i])
				i++
				j++
			}
		}
		ops += int64(len(acc) - i + len(row) - j)
		acc = next
		if len(acc) == 0 {
			break
		}
	}
	return ops
}

// TestPostingsChargeMatchesSeedModel: the simulated work charged by count
// must equal the seed's merge charge for every itemset and every posting
// layout — the galloping rewrite and the hybrid bitmap layout may only
// change wall-clock time, never the simulated clock.
func TestPostingsChargeMatchesSeedModel(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	for _, tc := range []struct {
		name      string
		threshold float64
	}{
		{"compressed", math.Inf(1)},
		{"hybrid", 0},
		{"bitmap", denseThresholdAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mining.NewMetrics("test")
			p := buildPostings(db, &m, 1, tc.threshold)
			rng := rand.New(rand.NewSource(91))
			for trial := 0; trial < 400; trial++ {
				k := 1 + rng.Intn(4)
				raw := make([]uint32, k)
				for j := range raw {
					raw[j] = uint32(rng.Intn(db.NumItems()))
				}
				x := itemset.New(raw...)
				var rows [][]txdb.TID
				empty := false
				for _, it := range x {
					r := p.row(it)
					if len(r) == 0 {
						empty = true
						break
					}
					rows = append(rows, r)
				}
				before := m.Work.Units
				got := p.count(x, &m)
				charged := m.Work.Units - before
				if empty {
					if charged != 0 || got != 0 {
						t.Fatalf("itemset %v with empty row: count=%d charge=%d", x, got, charged)
					}
					continue
				}
				want := oldCountCharge(rows)
				if charged != want {
					t.Fatalf("itemset %v: charged %d work units, seed model charges %d", x, charged, want)
				}
			}
		})
	}
}
