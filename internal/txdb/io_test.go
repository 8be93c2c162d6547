package txdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pmihp/internal/itemset"
)

func TestDBRoundTrip(t *testing.T) {
	db := build(57, 5, 300)
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() || got.NumItems() != db.NumItems() {
		t.Fatalf("shape: %d/%d vs %d/%d", got.Len(), got.NumItems(), db.Len(), db.NumItems())
	}
	for i := 0; i < db.Len(); i++ {
		a, b := db.Tx(i), got.Tx(i)
		if a.TID != b.TID || a.Day != b.Day || !a.Items.Equal(b.Items) {
			t.Fatalf("tx %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestDBRoundTripEmptyAndEdge(t *testing.T) {
	for _, db := range []*DB{
		New(nil, 10),
		New([]Transaction{{TID: 0, Items: itemset.Itemset{}}}, 1),
		New([]Transaction{{TID: 7, Day: 3, Items: itemset.New(0, 9)}}, 10),
	} {
		var buf bytes.Buffer
		if err := db.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDB(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != db.Len() {
			t.Fatalf("len %d vs %d", got.Len(), db.Len())
		}
	}
}

func TestReadDBRejectsCorruption(t *testing.T) {
	db := build(10, 2, 50)
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// header is a bare 16-byte header (10 items) claiming numTxs records.
	header := func(numTxs uint32) []byte {
		h := binary.LittleEndian.AppendUint32([]byte(dbMagic), dbVersion)
		h = binary.LittleEndian.AppendUint32(h, 10)
		return binary.LittleEndian.AppendUint32(h, numTxs)
	}

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99, 0, 0, 0}, good[8:]...)...),
		"truncated":   good[:len(good)-3],
		// A count far past the records must cost no more than the
		// records: sized from the header, 2^32-1 overflows a numTxs+1
		// capacity and 10^8 reserves 1.1 GB before the EOF.
		"claims 2^32-1 txs": header(math.MaxUint32),
		"claims 1e8 txs":    header(100_000_000),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadDB(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", name, alloc)
		}
	}
}

// Save writes the database to a file.
func (d *DB) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a database from a file written by Save.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDB(f)
}

func TestSaveLoad(t *testing.T) {
	db := build(23, 4, 100)
	path := filepath.Join(t.TempDir(), "db.pmdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("Load lost transactions: %d vs %d", got.Len(), db.Len())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}
