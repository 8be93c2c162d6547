package tht

import (
	"math/rand"
	"slices"
	"testing"

	"pmihp/internal/itemset"
)

// TestBuildLocalShardsMatchesSerial: the sharded pass-1 build must produce a
// table and count vector identical to the serial build for every worker
// count.
func TestBuildLocalShardsMatchesSerial(t *testing.T) {
	db := makeDB(7, 300, 500, 40)
	want, wantCounts := BuildLocalShards(db, 16, 1)
	for _, workers := range []int{2, 3, 8, 64} {
		got, gotCounts := BuildLocalShards(db, 16, workers)
		if got.Entries() != want.Entries() || got.NumItems() != want.NumItems() {
			t.Fatalf("workers=%d: geometry %d/%d, want %d/%d",
				workers, got.Entries(), got.NumItems(), want.Entries(), want.NumItems())
		}
		for it := 0; it < db.NumItems(); it++ {
			if gotCounts[it] != wantCounts[it] {
				t.Fatalf("workers=%d: count[%d] = %d, want %d", workers, it, gotCounts[it], wantCounts[it])
			}
			wr, gr := want.row(itemset.Item(it)), got.row(itemset.Item(it))
			if (wr == nil) != (gr == nil) {
				t.Fatalf("workers=%d: row presence mismatch for item %d", workers, it)
			}
			for j := range wr {
				if wr[j] != gr[j] {
					t.Fatalf("workers=%d: row[%d][%d] = %d, want %d", workers, it, j, gr[j], wr[j])
				}
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
		locals[s], _ = BuildLocalShards(makeDB(int64(s+11), 60, 300, 25), 8, 1)
		locals[s].Retain(func(it itemset.Item) bool { return it%3 != 0 })
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
