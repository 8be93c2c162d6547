package core

import (
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/tht"
)

func TestResumeCountsValidates(t *testing.T) {
	got, err := countsFromWire([]uint32{3, 0, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 0 || got[2] != 7 {
		t.Fatalf("got %v", got)
	}
	if _, err := countsFromWire([]uint32{1}, 2); err == nil {
		t.Fatal("want error for width mismatch")
	}
}

// The byte-identity of a resumed session hangs on this: the cascaded
// THT rebuilt from checkpointed wire blobs must produce the same
// cascade bounds and the same poll-peer selection as the segments the
// original exchange delivered. The wire form carries the counter rows
// exactly and masks are deterministic functions of the rows, so the
// two views must agree on every query.
func TestSegmentsFromWireBoundFidelity(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	cfg.Docs, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 120, 300, 30, 18
	db := smallDB(t, cfg)
	const n, entries, globalMin = 4, 8, 6

	parts := db.SplitChronological(n)
	globalCounts := make([]int, db.NumItems())
	locals := make([]*tht.Local, n)
	for i, part := range parts {
		local, counts := tht.BuildLocalShards(part, entries, 1)
		locals[i] = local
		for it, c := range counts {
			globalCounts[it] += c
		}
	}
	freq, f1, _ := FrequentItems(globalCounts, globalMin)
	if len(f1) < 4 {
		t.Fatalf("corpus too sparse: %d frequent items", len(f1))
	}
	blobs := make([][]byte, n)
	for i, local := range locals {
		local.Retain(func(it itemset.Item) bool { return freq[it] })
		local.BuildMasks()
		blobs[i] = local.AppendWire(nil)
	}
	orig := tht.NewGlobal(locals)
	resumed, err := segmentsFromWire(blobs, entries, db.NumItems())
	if err != nil {
		t.Fatal(err)
	}

	var sets []itemset.Itemset
	for i := 0; i+1 < len(f1); i++ {
		sets = append(sets, itemset.Itemset{f1[i], f1[i+1]})
	}
	for i := 0; i+2 < len(f1); i += 2 {
		sets = append(sets, itemset.Itemset{f1[i], f1[i+1], f1[i+2]})
	}
	for _, set := range sets {
		for _, threshold := range []int{1, globalMin, 3 * globalMin} {
			or, oSlots := orig.BoundReaches(set, threshold)
			rr, rSlots := resumed.BoundReaches(set, threshold)
			if or != rr || oSlots != rSlots {
				t.Fatalf("set %v threshold %d: original (%v,%d) vs resumed (%v,%d)",
					set, threshold, or, oSlots, rr, rSlots)
			}
		}
		for self := 0; self < n; self++ {
			op, oSlots := orig.PollPeers(set, self, nil)
			rp, rSlots := resumed.PollPeers(set, self, nil)
			if oSlots != rSlots || len(op) != len(rp) {
				t.Fatalf("set %v self %d: peers %v/%d vs %v/%d", set, self, op, oSlots, rp, rSlots)
			}
			for i := range op {
				if op[i] != rp[i] {
					t.Fatalf("set %v self %d: peers %v vs %v", set, self, op, rp)
				}
			}
		}
	}

	if _, err := segmentsFromWire(nil, entries, db.NumItems()); err == nil {
		t.Fatal("want error for empty blob list")
	}
	if _, err := segmentsFromWire([][]byte{{1, 2, 3}}, entries, db.NumItems()); err == nil {
		t.Fatal("want error for corrupt blob")
	}
	if _, err := segmentsFromWire(blobs, entries+1, db.NumItems()); err == nil {
		t.Fatal("want error for segments of another session's geometry")
	}
}
