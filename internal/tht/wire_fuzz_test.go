package tht

import (
	"bytes"
	"hash/fnv"
	"testing"

	"pmihp/internal/itemset"
)

// FuzzTHTWire holds the segment codec to the transport codec's bar
// (internal/transport/codec_fuzz_test.go). Arbitrary input decodes or
// fails, never panics; whatever decodes re-encodes to the exact bytes it
// came from — one canonical encoding per segment — with masks that match
// its counters. And a table built from a database seeded by the input
// round-trips with every bound and slot charge intact.
func FuzzTHTWire(f *testing.F) {
	f.Add(uint8(fixEntries), uint16(fixItems), buildWireFixture(f).AppendWire(nil))
	f.Add(uint8(fixEntries), uint16(fixItems), []byte{})
	f.Add(uint8(fixEntries), uint16(fixItems), append(wireHeader(fixEntries, fixItems, 1), 3, 1, 4, 1))
	f.Add(uint8(99), uint16(300), wireHeader(100, 300, 0))

	f.Fuzz(func(t *testing.T, entries uint8, numItems uint16, data []byte) {
		// Up to 129 slots (three mask words) over up to 2047 items.
		e, n := 1+int(entries)%129, int(numItems)%2048
		if l, err := DecodeWire(data, e, n); err == nil {
			if got := l.AppendWire(nil); !bytes.Equal(got, data) {
				t.Fatalf("segment re-encode mismatch: %x vs %x", got, data)
			}
			requireMasks(t, l)
		}

		h := fnv.New64a()
		h.Write(data)
		seed := int64(h.Sum64())
		vocab := 8 + int(numItems)%40
		db := makeDB(seed, 1+len(data)%40, vocab, 1+int(entries)%8)
		l, _ := BuildLocalShards(db, e, 1)
		l.Retain(func(it itemset.Item) bool { return (int64(it)+seed)%4 != 0 })
		enc := l.AppendWire(nil)
		got, err := DecodeWire(enc, e, vocab)
		if err != nil {
			t.Fatalf("decoding a built segment: %v", err)
		}
		if re := got.AppendWire(nil); !bytes.Equal(re, enc) {
			t.Fatalf("built segment re-encodes to %x, want %x", re, enc)
		}
		for a := 0; a < vocab; a++ {
			for b := a + 1; b < vocab; b++ {
				x := itemset.Itemset{itemset.Item(a), itemset.Item(b)}
				if lb, gb := maxPossible(l, x), maxPossible(got, x); lb != gb {
					t.Fatalf("maxPossible(%v): built %d, decoded %d", x, lb, gb)
				}
				for _, threshold := range []int{1, 2, 5} {
					lr, ls := l.BoundReaches(x, threshold)
					gr, gs := got.BoundReaches(x, threshold)
					if lr != gr || ls != gs {
						t.Fatalf("BoundReaches(%v, %d): built %v/%d, decoded %v/%d", x, threshold, lr, ls, gr, gs)
					}
				}
			}
		}
	})
}
