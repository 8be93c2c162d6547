package tht

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// The fixture's geometry: 7 slots per row, item ids below 10.
const fixEntries, fixItems = 7, 10

func buildWireFixture(t testing.TB) *Local {
	t.Helper()
	db := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.Itemset{0, 2, 5}},
		{TID: 1, Items: itemset.Itemset{2, 5, 9}},
		{TID: 2, Items: itemset.Itemset{0, 9}},
		{TID: 3, Items: itemset.Itemset{5}},
	}, fixItems)
	l, _ := BuildLocalShards(db, fixEntries, 1)
	return l
}

func TestWireRoundTrip(t *testing.T) {
	l := buildWireFixture(t)
	got, err := DecodeWire(l.AppendWire(nil), fixEntries, fixItems)
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if got.Entries() != l.Entries() || got.NumItems() != l.NumItems() {
		t.Fatalf("geometry: got %d/%d want %d/%d", got.Entries(), got.NumItems(), l.Entries(), l.NumItems())
	}
	for _, it := range []itemset.Item{0, 2, 5, 9, 3} {
		a, b := l.row(it), got.row(it)
		if len(a) != len(b) {
			t.Fatalf("item %d: row lengths %d vs %d", it, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("item %d slot %d: %d vs %d", it, j, a[j], b[j])
			}
		}
	}
	// Bounds must agree — that is what the cascade consumes.
	for _, x := range []itemset.Itemset{{0, 5}, {2, 9}, {0, 2, 5}, {3, 5}} {
		if a, b := maxPossible(l, x), maxPossible(got, x); a != b {
			t.Fatalf("maxPossible(%v): %d vs %d", x, a, b)
		}
	}
	requireMasks(t, got)
}

func TestWireRoundTripAfterRetain(t *testing.T) {
	l := buildWireFixture(t)
	l.Retain(func(it itemset.Item) bool { return it == 2 || it == 5 })
	got, err := DecodeWire(l.AppendWire(nil), fixEntries, fixItems)
	if err != nil {
		t.Fatal(err)
	}
	if got.row(0) != nil || got.row(9) != nil {
		t.Fatal("dropped rows survived the round trip")
	}
	if maxPossible(got, itemset.Itemset{2, 5}) != maxPossible(l, itemset.Itemset{2, 5}) {
		t.Fatal("bound mismatch after Retain round trip")
	}
	// The decoder builds the masks a receiver bounds with; they must be
	// the ones Retain built for the sender.
	requireMasks(t, got)
	if !slices.Equal(got.maskData, l.maskData) || !slices.Equal(got.occ, l.occ) {
		t.Fatalf("decoded masks %x / occupancy %v, Retain built %x / %v", got.maskData, got.occ, l.maskData, l.occ)
	}
}

func TestDecodeWireRejectsCorruption(t *testing.T) {
	l := buildWireFixture(t)
	enc := l.AppendWire(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeWire(enc[:cut], fixEntries, fixItems); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if _, err := DecodeWire(append(slices.Clone(enc), 1, 2, 3, 4), fixEntries, fixItems); err == nil {
		t.Fatal("trailing bytes decoded")
	}
	// A hostile row count must not cause a huge allocation or a panic.
	body := enc[3:] // the fixture's header is three one-byte varints
	if _, err := DecodeWire(append(wireHeader(fixEntries, fixItems, 1<<40), body...), fixEntries, fixItems); err == nil {
		t.Fatal("absurd row count decoded")
	}
	// Zero entries is not the session's geometry.
	if _, err := DecodeWire(append(wireHeader(0, fixItems, 4), body...), fixEntries, fixItems); err == nil {
		t.Fatal("zero-entry table decoded")
	}
	// A non-minimal varint (0x80 0x00 for 0) has a second encoding of the
	// same segment, which the canonical form forbids.
	padded := append(wireHeader(fixEntries, fixItems, 4), body...)
	padded = append(padded[:2], append([]byte{0x84, 0x00}, padded[3:]...)...)
	if _, err := DecodeWire(padded, fixEntries, fixItems); err == nil {
		t.Fatal("non-minimal varint decoded")
	}
}

// wireHeader encodes a segment header.
func wireHeader(entries, numItems, rows uint64) []byte {
	b := binary.AppendUvarint(nil, entries)
	b = binary.AppendUvarint(b, numItems)
	return binary.AppendUvarint(b, rows)
}

// TestDecodeWireRejectsForeignGeometry: the decoder checks a segment's
// header against the session's geometry before it allocates, and checks
// every row and slot against it while decoding, so no blob — a peer's or
// a resume checkpoint's — can make a node allocate more than a small
// multiple of the blob itself, or build a table the session's bounds
// would misread.
func TestDecodeWireRejectsForeignGeometry(t *testing.T) {
	// One row for item 2 with slot 3 counted once: gap 3, nnz 1, gap 4, 1.
	row := []byte{3, 1, 4, 1}
	cases := map[string][]byte{
		// A dense header (u32 entries, u32 numItems = 2^27, u32 rows) in
		// the 12 bytes that used to decode to a 512 MB row index.
		"dense wide-item header": {4, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0},
		"wide item width":        wireHeader(fixEntries, 1<<27, 0),
		"width 2^31":             wireHeader(fixEntries, 1<<31, 0),
		"huge entries":           append(wireHeader(1<<40, fixItems, 1), row...),
		"entries mismatch":       append(wireHeader(fixEntries+1, fixItems, 1), row...),
		"item width mismatch":    append(wireHeader(fixEntries, fixItems+1, 1), row...),
		"rows beyond width":      wireHeader(fixEntries, fixItems, fixItems+1),
		"rows beyond blob":       append(wireHeader(fixEntries, fixItems, 2), row...),
		"repeated row":           append(append(wireHeader(fixEntries, fixItems, 2), row...), 0, 1, 1, 1),
		"row past width":         append(append(wireHeader(fixEntries, fixItems, 2), row...), fixItems-2, 1, 1, 1),
		"wrapping row gap": append(append(wireHeader(fixEntries, fixItems, 2), row...),
			0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1, 1),
		"repeated slot":  append(wireHeader(fixEntries, fixItems, 1), 3, 2, 4, 1, 0, 1),
		"slot past row":  append(wireHeader(fixEntries, fixItems, 1), 3, 2, 4, 1, fixEntries-3, 1),
		"empty row":      append(wireHeader(fixEntries, fixItems, 1), 3, 0, 4, 1),
		"row too wide":   append(wireHeader(fixEntries, fixItems, 1), 3, fixEntries+1, 4, 1),
		"zero count":     append(wireHeader(fixEntries, fixItems, 1), 3, 1, 4, 0),
		"count past u32": append(wireHeader(fixEntries, fixItems, 1), binary.AppendUvarint([]byte{3, 1, 4}, 1<<32)...),
	}
	good := append(wireHeader(fixEntries, fixItems, 1), row...)
	if l, err := DecodeWire(good, fixEntries, fixItems); err != nil || l.row(2)[3] != 1 {
		t.Fatalf("well-formed single-row segment: %v", err)
	}
	for name, blob := range cases {
		if _, err := DecodeWire(blob, fixEntries, fixItems); err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			DecodeWire(blob, fixEntries, fixItems)
		}
		runtime.ReadMemStats(&after)
		// The session's own row index plus a few hundred bytes of table
		// and error text per blob byte at most.
		budget := 4*fixItems + 64*len(blob) + 512
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > uint64(budget) {
			t.Errorf("%s: rejecting a %d-byte blob allocated %d bytes, budget %d", name, len(blob), perRun, budget)
		}
	}
}

// TestWireCascadeBoundFidelity: every TCP node builds its cascade from
// its peers' decoded wire blobs, so a cascade of DecodeWire segments
// must produce the same cascade bounds and the same poll-peer selection
// as the segments the blobs were encoded from. The wire form carries the
// counter rows exactly and masks are deterministic functions of the
// rows, so the two views must agree on every query.
func TestWireCascadeBoundFidelity(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	cfg.Docs, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 120, 300, 30, 18
	docs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	const n, entries, globalMin = 4, 8, 6

	parts := db.SplitChronological(n)
	globalCounts := make([]int, db.NumItems())
	locals := make([]*Local, n)
	for i, part := range parts {
		local, counts := BuildLocalShards(part, entries, 1)
		locals[i] = local
		for it, c := range counts {
			globalCounts[it] += c
		}
	}
	var f1 []itemset.Item
	for it, c := range globalCounts {
		if c >= globalMin {
			f1 = append(f1, itemset.Item(it))
		}
	}
	if len(f1) < 4 {
		t.Fatalf("corpus too sparse: %d frequent items", len(f1))
	}
	decoded := make([]*Local, n)
	for i, local := range locals {
		local.Retain(func(it itemset.Item) bool { return globalCounts[it] >= globalMin })
		blob := local.AppendWire(nil)
		if decoded[i], err = DecodeWire(blob, entries, db.NumItems()); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeWire(blob, entries+1, db.NumItems()); err == nil {
			t.Fatal("want error for a segment of another session's geometry")
		}
	}
	orig, wire := NewGlobal(locals), NewGlobal(decoded)

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
			wr, wSlots := wire.BoundReaches(set, threshold)
			if or != wr || oSlots != wSlots {
				t.Fatalf("set %v threshold %d: original (%v,%d) vs decoded (%v,%d)",
					set, threshold, or, oSlots, wr, wSlots)
			}
		}
		for self := 0; self < n; self++ {
			op, oSlots := orig.PollPeers(set, self, nil)
			wp, wSlots := wire.PollPeers(set, self, nil)
			if oSlots != wSlots || !slices.Equal(op, wp) {
				t.Fatalf("set %v self %d: peers %v/%d vs %v/%d", set, self, op, oSlots, wp, wSlots)
			}
		}
	}

	if _, err := DecodeWire([]byte{1, 2, 3}, entries, db.NumItems()); err == nil {
		t.Fatal("want error for a corrupt blob")
	}
}
