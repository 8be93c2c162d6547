package txdb_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Bounds on what one fuzz input counts: the poll counter's posting file is
// sized by the header's vocabulary, which the decoder takes as given, and
// the reference count scans every transaction for every pair.
const (
	fuzzMaxItems = 1 << 16
	fuzzMaxTxs   = 1 << 12
	fuzzMaxPairs = 1 << 12
)

// encoded returns db in its binary form.
func encoded(tb testing.TB, db *txdb.DB) []byte {
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadDB holds the partition decoder a daemon runs on its Init
// payload to the codecs' bar. Any input either fails to decode, or decodes
// to strictly ascending TIDs, re-encodes to a database with the same
// arrays, and serves the first poll it could be asked — every item pair of
// its transactions, counted by a poll counter — with the counts a scan
// finds.
func FuzzReadDB(f *testing.F) {
	f.Add(encoded(f, txdb.New(nil, 4)))
	f.Add(encoded(f, txdb.New([]txdb.Transaction{
		{TID: 2, Day: 0, Items: itemset.New(0, 3)},
		{TID: 7, Day: 1, Items: itemset.New(0, 1, 3)},
		{TID: 9, Day: 1, Items: itemset.New(1, 2, 3)},
	}, 4)))
	// Items in most transactions, so the posting file holds bitmaps.
	dense := make([]txdb.Transaction, 80)
	for i := range dense {
		dense[i] = txdb.Transaction{TID: txdb.TID(3 * i), Day: i / 10, Items: itemset.New(0, 1, uint32(2+i%5))}
	}
	f.Add(encoded(f, txdb.New(dense, 8)))
	// TIDs 5, 3, 9, each transaction holding items {1, 2}.
	unordered := binary.LittleEndian.AppendUint32([]byte("PMDB"), 1)
	unordered = binary.LittleEndian.AppendUint32(unordered, 3)
	unordered = binary.LittleEndian.AppendUint32(unordered, 3)
	for _, tid := range []uint32{5, 3, 9} {
		for _, v := range []uint32{tid, 0, 2, 1, 1} {
			unordered = binary.LittleEndian.AppendUint32(unordered, v)
		}
	}
	f.Add(unordered)

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := txdb.ReadDB(bytes.NewReader(data))
		if err != nil {
			return
		}
		items, offsets, tids := db.CSR()
		for i := 1; i < len(tids); i++ {
			if tids[i] <= tids[i-1] {
				t.Fatalf("tx %d: TID %d after %d", i, tids[i], tids[i-1])
			}
		}

		again, err := txdb.ReadDB(bytes.NewReader(encoded(t, db)))
		if err != nil {
			t.Fatalf("re-encoded database does not decode: %v", err)
		}
		items2, offsets2, tids2 := again.CSR()
		if again.NumItems() != db.NumItems() || !slices.Equal(items2, items) ||
			!slices.Equal(offsets2, offsets) || !slices.Equal(tids2, tids) {
			t.Fatal("re-encoded database differs")
		}
		for i := 0; i < db.Len(); i++ {
			if again.DayOf(i) != db.DayOf(i) {
				t.Fatalf("tx %d: day %d re-decodes as %d", i, db.DayOf(i), again.DayOf(i))
			}
		}

		if db.NumItems() > fuzzMaxItems || db.Len() > fuzzMaxTxs {
			return
		}
		var sets []itemset.Itemset
	pairs:
		for i := 0; i < db.Len(); i++ {
			tx := db.ItemsOf(i)
			for a := 0; a < len(tx); a++ {
				for b := a + 1; b < len(tx); b++ {
					if len(sets) == fuzzMaxPairs {
						break pairs
					}
					sets = append(sets, itemset.Itemset{tx[a], tx[b]})
				}
			}
		}
		var m mining.Metrics
		counts := core.NewPollCounter(db, 1, 0).CountBatch(sets, &m)
		for k, set := range sets {
			want := 0
			for i := 0; i < db.Len(); i++ {
				if set.SubsetOf(db.ItemsOf(i)) {
					want++
				}
			}
			if int(counts[k]) != want {
				t.Fatalf("pair %v: poll counter %d, scan %d", set, counts[k], want)
			}
		}
	})
}
