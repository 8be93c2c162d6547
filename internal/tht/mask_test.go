package tht

import (
	"fmt"
	"math/bits"
	"testing"

	"pmihp/internal/itemset"
)

// requireMasks asserts that a table's occupancy masks describe its
// counters: bit j of a row's mask is set exactly when counter j is
// positive, occ is the mask's popcount, and fast1 marks exactly the
// one-word geometry.
func requireMasks(t testing.TB, l *Local) {
	t.Helper()
	w := l.maskWords()
	if l.fast1 != (w == 1) {
		t.Fatalf("fast1 %v with %d mask words", l.fast1, w)
	}
	if len(l.maskData) != len(l.rowItem)*w || len(l.occ) != len(l.rowItem) {
		t.Fatalf("%d mask words and %d occupancy counters for %d rows of %d words",
			len(l.maskData), len(l.occ), len(l.rowItem), w)
	}
	for r, it := range l.rowItem {
		mask := l.maskData[r*w : (r+1)*w]
		pc := 0
		for _, m := range mask {
			pc += bits.OnesCount64(m)
		}
		if int(l.occ[r]) != pc {
			t.Fatalf("item %d: occupancy %d, mask popcount %d", it, l.occ[r], pc)
		}
		for j, c := range l.row(it) {
			if set := mask[j/64]&(1<<(j%64)) != 0; set != (c > 0) {
				t.Fatalf("item %d slot %d: mask bit %v, counter %d", it, j, set, c)
			}
		}
		for j := l.entries; j < 64*w; j++ {
			if mask[j/64]&(1<<(j%64)) != 0 {
				t.Fatalf("item %d: mask bit %d past %d entries", it, j, l.entries)
			}
		}
	}
}

// TestMasksMatchCounters: every table a bound can read — a build of the
// kept rows, BuildLocalShards at any worker count followed by Retain, or
// a decoded peer segment — carries masks that match its counters, in
// one-word and multi-word geometries, and the Retain path yields the
// table Build does.
func TestMasksMatchCounters(t *testing.T) {
	db := makeDB(13, 300, 200, 25)
	keep := func(it itemset.Item) bool { return it%5 != 0 }
	requireMasksRoundTrip := func(t *testing.T, l *Local, entries int) {
		t.Helper()
		requireMasks(t, l)
		got, err := DecodeWire(l.AppendWire(nil), entries, db.NumItems())
		if err != nil {
			t.Fatal(err)
		}
		requireMasks(t, got)
	}
	for _, entries := range []int{16, 50, 400} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			want := built(db, entries, keep)
			requireMasksRoundTrip(t, want, entries)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					l, _ := BuildLocalShards(db, entries, workers)
					l.Retain(keep)
					requireMasksRoundTrip(t, l, entries)
					if err := sameTable(l, want); err != "" {
						t.Fatalf("BuildLocalShards then Retain against Build: %s", err)
					}
				})
			}
		})
	}
}
