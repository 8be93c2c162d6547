package streammine

import (
	"encoding/binary"
	"fmt"
	"math"

	"pmihp/internal/itemset"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// The stream-state codec. A Miner's checkpoint rides inside the cluster
// checkpoint format (transport.Checkpoint at StageStream) as an opaque
// payload; this file owns that payload's encoding. Like the PMCK codec it
// wraps, the encoding is canonical: a payload that decodes successfully
// re-encodes to the exact bytes it came from (the invariant FuzzStreamState
// holds it to), so the decoder rejects any deviation from canonical order
// (ascending items, result lists in their canonical sort) rather than
// silently accepting a second spelling of the same state.
//
// A checkpoint captures the window, not the log: only the window's
// transactions are encoded (eviction compacts on save), together with the
// first window TID so the restored store reissues the original TIDs, and
// the current frequent sets. Decoding is a bounded parse that never
// re-mines, so a hostile payload cannot buy unbounded work. Restore
// rebuilds a Miner whose observable state — views, counts, results — is
// identical to the uninterrupted run's.

// streamStateMagic and streamStateVersion frame the payload inside the
// PMCK Stream field; the version is bumped independently of the PMCK
// version. Version 2 dropped version 1's per-day count summaries.
const (
	streamStateMagic   = "PMS1"
	streamStateVersion = 2
)

// EncodeState returns the canonical encoding of the miner's window state.
// It fails only when the state cannot be represented: negative days or
// dimensions beyond the wire's 32-bit ranges.
func (m *Miner) EncodeState() ([]byte, error) {
	view := m.WindowDB()
	if view.Len() > 0 && view.DayOf(0) < 0 {
		return nil, fmt.Errorf("streammine: cannot checkpoint negative day %d", view.DayOf(0))
	}
	if m.cfg.Opts.MinSupCount > math.MaxUint32 || m.cfg.Opts.MaxK > math.MaxUint32 {
		return nil, fmt.Errorf("streammine: checkpoint thresholds out of range")
	}
	b := []byte(streamStateMagic)
	b = append(b, streamStateVersion)
	b = sappendU32(b, uint32(m.cfg.WindowDays))
	b = sappendF64(b, m.cfg.Decay)
	b = sappendF64(b, m.cfg.Opts.MinSupFrac)
	b = sappendU32(b, uint32(m.cfg.Opts.MinSupCount))
	b = sappendU32(b, uint32(m.cfg.Opts.MaxK))
	b = sappendU32(b, uint32(m.store.NumItems()))
	firstTID := m.store.NextTID() - txdb.TID(view.Len())
	b = sappendU32(b, firstTID)
	b = sappendU32(b, uint32(m.steps))
	b = sappendU32(b, uint32(view.Len()))
	for i := 0; i < view.Len(); i++ {
		b = sappendU32(b, uint32(view.DayOf(i)))
		items := view.ItemsOf(i)
		b = sappendU32(b, uint32(len(items)))
		for _, it := range items {
			b = sappendU32(b, uint32(it))
		}
	}
	if m.cfg.weightedMode() {
		b = sappendU32(b, uint32(len(m.weighted)))
		for _, e := range m.weighted {
			b = sappendU32(b, uint32(len(e.Set)))
			for _, it := range e.Set {
				b = sappendU32(b, uint32(it))
			}
			b = sappendU32(b, uint32(e.Count))
			b = sappendF64(b, e.Weight)
		}
	} else {
		b = sappendU32(b, uint32(len(m.frequent)))
		for _, c := range m.frequent {
			b = sappendU32(b, uint32(len(c.Set)))
			for _, it := range c.Set {
				b = sappendU32(b, uint32(it))
			}
			b = sappendU32(b, uint32(c.Count))
		}
	}
	return b, nil
}

// DecodeState rebuilds a Miner from a payload written by EncodeState,
// rejecting truncated, corrupt, out-of-range, or non-canonically-ordered
// input with attributed errors.
func DecodeState(b []byte) (*Miner, error) {
	if len(b) < len(streamStateMagic)+1 {
		return nil, fmt.Errorf("streammine: state header truncated: %d bytes", len(b))
	}
	if string(b[:len(streamStateMagic)]) != streamStateMagic {
		return nil, fmt.Errorf("streammine: not a stream state (magic %q)", b[:len(streamStateMagic)])
	}
	if v := b[len(streamStateMagic)]; v != streamStateVersion {
		return nil, fmt.Errorf("streammine: unsupported state version %d (this build speaks version %d)",
			v, streamStateVersion)
	}
	r := &stateReader{b: b[len(streamStateMagic)+1:]}
	var cfg Config
	cfg.WindowDays = int(r.u32())
	cfg.Decay = r.f64()
	cfg.Opts.MinSupFrac = r.f64()
	cfg.Opts.MinSupCount = int(r.u32())
	cfg.Opts.MaxK = int(r.u32())
	if r.err == nil {
		if err := cfg.validate(); err != nil {
			return nil, err
		}
	}
	numItems := int(r.u32())
	firstTID := txdb.TID(r.u32())
	steps := int(r.u32())

	nTx := r.count(8) // a transaction needs at least its day and length
	txs := make([]txdb.Transaction, 0, nTx)
	for i := 0; i < nTx && r.err == nil; i++ {
		day := int(r.u32())
		if day > math.MaxInt32 {
			r.fail("tx %d day %d beyond the store's day range", i, day)
			break
		}
		set := r.set(numItems, fmt.Sprintf("tx %d", i))
		txs = append(txs, txdb.Transaction{Day: day, Items: set})
	}
	m := &Miner{cfg: cfg, store: txdb.NewAppendAt(numItems, firstTID), steps: steps}
	if r.err == nil {
		if err := m.store.Append(txs); err != nil {
			return nil, err
		}
		if m.store.NumItems() != numItems {
			r.fail("item id beyond the %d-item vocabulary", numItems)
		}
		if win := m.WindowDB().Len(); win != m.store.Len() {
			r.fail("%d of %d transactions fall before the window", m.store.Len()-win, m.store.Len())
		}
	}

	wmode := cfg.weightedMode()
	nFreq := r.count(8)
	var frequent []itemset.Counted
	var weighted []Weighted
	for i := 0; i < nFreq && r.err == nil; i++ {
		set := r.set(numItems, fmt.Sprintf("frequent set %d", i))
		if r.err != nil {
			break
		}
		if len(set) == 0 {
			r.fail("empty frequent set %d", i)
			break
		}
		c := int(r.u32())
		if c <= 0 || c > m.store.Len() {
			r.fail("frequent set %d count %d outside (0, %d]", i, c, m.store.Len())
			break
		}
		if wmode {
			w := r.f64()
			if math.IsNaN(w) || w <= 0 {
				r.fail("frequent set %d with weight %v", i, w)
				break
			}
			e := Weighted{Set: set, Count: c, Weight: w}
			if i > 0 && CompareWeighted(weighted[i-1], e) >= 0 {
				r.fail("weighted frequent sets not in canonical order at %d", i)
				break
			}
			weighted = append(weighted, e)
		} else {
			e := itemset.Counted{Set: set, Count: c}
			if i > 0 && !countedLess(frequent[i-1], e) {
				r.fail("frequent sets not in canonical order at %d", i)
				break
			}
			frequent = append(frequent, e)
		}
	}
	if wmode && r.err == nil {
		frequent = make([]itemset.Counted, len(weighted))
		for i, e := range weighted {
			frequent[i] = itemset.Counted{Set: e.Set, Count: e.Count}
		}
		itemset.SortCounted(frequent)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	m.frequent, m.weighted = frequent, weighted
	m.last = IngestStats{WindowTx: m.store.Len(), WindowDayCount: len(m.store.View().DayViews())}
	return m, nil
}

// countedLess is the strict form of the SortCounted order (descending
// count, ties lexicographic): it returns true when a sorts strictly
// before b, which a canonical frequent list requires of every adjacent
// pair (equal entries would be duplicates).
func countedLess(a, b itemset.Counted) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return itemset.Compare(a.Set, b.Set) < 0
}

// SaveCheckpoint atomically persists the miner's state to path as a
// cluster checkpoint at StageStream (transport.WriteCheckpointFile's
// temp-and-rename discipline). sessionID plays the role ClusterID plays
// for cluster checkpoints: a stream lineage identifier the operator
// chooses.
func (m *Miner) SaveCheckpoint(path string, sessionID uint64) error {
	state, err := m.EncodeState()
	if err != nil {
		return err
	}
	return transport.WriteCheckpointFile(path, transport.Checkpoint{
		ClusterID: sessionID,
		Nodes:     1,
		Stage:     transport.StageStream,
		Stream:    state,
	})
}

// LoadCheckpoint restores a miner from a PMCK checkpoint file, which must
// be at StageStream.
func LoadCheckpoint(path string) (*Miner, error) {
	c, err := transport.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	if c.Stage != transport.StageStream {
		return nil, fmt.Errorf("streammine: checkpoint at stage %s, want %s",
			transport.StageName(c.Stage), transport.StageName(transport.StageStream))
	}
	return DecodeState(c.Stream)
}

// Wire helpers, mirroring the transport codec's conventions (fixed-width
// little-endian, a fail-once reader); local because transport keeps its
// own unexported.

func sappendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func sappendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("streammine: "+format, args...)
	}
}

func (r *stateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("state truncated at byte %d (need %d more)", r.off, n)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *stateReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *stateReader) f64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// count reads an element count and sanity-checks it against the bytes
// remaining (each element needs at least elemSize bytes), so a corrupt
// length cannot drive a huge allocation.
func (r *stateReader) count(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && n*elemSize > len(r.b)-r.off {
		r.fail("count %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return n
}

// set reads a length-prefixed itemset, validating strict ascent and the
// vocabulary bound.
func (r *stateReader) set(numItems int, what string) itemset.Itemset {
	n := r.count(4)
	set := make(itemset.Itemset, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		it := itemset.Item(r.u32())
		if len(set) > 0 && it <= set[len(set)-1] {
			r.fail("%s items not strictly ascending", what)
			return nil
		}
		if int(it) >= numItems {
			r.fail("%s item %d beyond the %d-item vocabulary", what, it, numItems)
			return nil
		}
		set = append(set, it)
	}
	return set
}

func (r *stateReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("streammine: %d trailing bytes after state", len(r.b)-r.off)
	}
	return nil
}
