package txdb

import (
	"bytes"
	"os"
	"path/filepath"
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

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99, 0, 0, 0}, good[8:]...)...),
		"truncated":   good[:len(good)-3],
	}
	for name, data := range cases {
		if _, err := ReadDB(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
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
