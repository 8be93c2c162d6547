package txdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pmihp/internal/itemset"
)

// Binary transaction-database format, for round-tripping preprocessed
// databases without re-tokenizing: a fixed header followed by per-
// transaction records. All integers are little-endian uint32; items are
// delta-encoded within a transaction (they are strictly increasing).
//
//	magic "PMDB" | version | numItems | numTxs
//	per tx: tid | day | n | item deltas[n]

const (
	dbMagic   = "PMDB"
	dbVersion = 1

	// readPrealloc caps how many transactions ReadDB sizes its arrays for
	// from the header alone (12 bytes each).
	readPrealloc = 1 << 12
)

// Encode serializes the database.
func (d *DB) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(dbMagic); err != nil {
		return err
	}
	var u [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(u[:], v)
		_, err := bw.Write(u[:])
		return err
	}
	if err := put(dbVersion); err != nil {
		return err
	}
	if err := put(uint32(d.numItems)); err != nil {
		return err
	}
	if err := put(uint32(d.Len())); err != nil {
		return err
	}
	for i := 0; i < d.Len(); i++ {
		if err := put(d.tids[i]); err != nil {
			return err
		}
		if err := put(uint32(d.days[i])); err != nil {
			return err
		}
		items := d.ItemsOf(i)
		if err := put(uint32(len(items))); err != nil {
			return err
		}
		prev := uint32(0)
		for _, it := range items {
			if err := put(it - prev); err != nil {
				return err
			}
			prev = it
		}
	}
	return bw.Flush()
}

// ReadDB deserializes a database written by Encode, building the CSR arrays
// directly (no per-transaction item allocations). It refuses transactions
// whose TIDs do not strictly ascend, as every database's do: the posting
// file and TID spans rely on it, and a daemon decodes its partition from
// outside the process.
func ReadDB(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("txdb: reading magic: %w", err)
	}
	if string(magic) != dbMagic {
		return nil, fmt.Errorf("txdb: bad magic %q", magic)
	}
	var u [4]byte
	get := func() (uint32, error) {
		if _, err := io.ReadFull(br, u[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u[:]), nil
	}
	version, err := get()
	if err != nil {
		return nil, err
	}
	if version != dbVersion {
		return nil, fmt.Errorf("txdb: unsupported version %d", version)
	}
	numItems, err := get()
	if err != nil {
		return nil, err
	}
	numTxs, err := get()
	if err != nil {
		return nil, err
	}
	// The header's count is untrusted: reserve room for at most
	// readPrealloc transactions and let append grow past that, so a
	// hostile count costs no more than the records actually present.
	hint := min(int(numTxs), readPrealloc)
	d := &DB{
		offsets:  make([]uint32, 1, hint+1),
		tids:     make([]TID, 0, hint),
		days:     make([]int32, 0, hint),
		numItems: int(numItems),
	}
	for i := 0; i < int(numTxs); i++ {
		tid, err := get()
		if err != nil {
			return nil, fmt.Errorf("txdb: tx %d: %w", i, err)
		}
		if i > 0 && tid <= d.tids[i-1] {
			return nil, fmt.Errorf("txdb: tx %d: TID %d does not ascend past %d", i, tid, d.tids[i-1])
		}
		day, err := get()
		if err != nil {
			return nil, fmt.Errorf("txdb: tx %d: %w", i, err)
		}
		n, err := get()
		if err != nil {
			return nil, fmt.Errorf("txdb: tx %d: %w", i, err)
		}
		start := len(d.items)
		prev := uint32(0)
		for j := 0; j < int(n); j++ {
			delta, err := get()
			if err != nil {
				return nil, fmt.Errorf("txdb: tx %d item %d: %w", i, j, err)
			}
			prev += delta
			if prev >= numItems {
				return nil, fmt.Errorf("txdb: tx %d item %d: id %d out of range", i, j, prev)
			}
			d.items = append(d.items, prev)
		}
		if !itemset.Itemset(d.items[start:]).Valid() {
			return nil, fmt.Errorf("txdb: tx %d: items not strictly increasing", i)
		}
		d.offsets = append(d.offsets, uint32(len(d.items)))
		d.tids = append(d.tids, tid)
		d.days = append(d.days, int32(day))
	}
	return d, nil
}
