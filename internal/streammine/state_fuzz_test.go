package streammine

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// fuzzSeedState builds a real miner state to seed the fuzzer with: a few
// days of transactions dense enough to mine k≥3 frequent sets and (for
// decay > 0) the weighted result list.
func fuzzSeedState(tb testing.TB, decay float64) []byte {
	tb.Helper()
	m, err := New(6, Config{WindowDays: 3, Decay: decay,
		Opts: mining.Options{MinSupCount: 2, MaxK: 4}})
	if err != nil {
		tb.Fatal(err)
	}
	mk := func(items ...itemset.Item) txdb.Transaction {
		return txdb.Transaction{Items: items}
	}
	for day := 0; day < 5; day++ {
		batch := []txdb.Transaction{
			mk(0, 1, 2, 3), mk(0, 1, 2), mk(1, 2, 3), mk(0, 3, 4), mk(2, 4, 5),
		}
		for i := range batch {
			batch[i].Day = day
		}
		if err := m.Ingest(batch); err != nil {
			tb.Fatal(err)
		}
	}
	state, err := m.EncodeState()
	if err != nil {
		tb.Fatal(err)
	}
	return state
}

// FuzzStreamState holds the stream-state codec to the PMCK codec's bar:
// arbitrary input never panics, and any payload that decodes successfully
// re-encodes to the exact bytes it came from — one canonical encoding per
// miner state. Because the decoder validates canonical order, count
// bounds, and that every transaction lies in the window, a payload that
// passes is also a structurally coherent miner.
func FuzzStreamState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(streamStateMagic))
	f.Add(fuzzSeedState(f, 0))
	f.Add(fuzzSeedState(f, 0.75))
	empty, err := func() ([]byte, error) {
		m, err := New(4, Config{WindowDays: 2, Opts: mining.Options{MinSupCount: 2}})
		if err != nil {
			return nil, err
		}
		return m.EncodeState()
	}()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	// A version-skewed header must be rejected by the version check, not
	// half-decoded.
	skew := fuzzSeedState(f, 0)
	skew[len(streamStateMagic)] = streamStateVersion + 1
	f.Add(skew)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeState(data)
		if err != nil {
			return
		}
		got, err := m.EncodeState()
		if err != nil {
			t.Fatalf("decoded state does not re-encode: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("state re-encode mismatch:\n got %x\nwant %x", got, data)
		}
	})
}

// TestStateRejectsCorruption exhaustively truncates a real payload and
// flips its stage bytes: every cut must be rejected with an error, never
// a panic or a silent partial decode.
func TestStateRejectsCorruption(t *testing.T) {
	for _, decay := range []float64{0, 0.75} {
		enc := fuzzSeedState(t, decay)
		if _, err := DecodeState(enc); err != nil {
			t.Fatalf("decay %v: pristine state rejected: %v", decay, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeState(enc[:cut]); err == nil {
				t.Fatalf("decay %v: truncation to %d bytes decoded without error", decay, cut)
			}
		}
		if _, err := DecodeState(append(append([]byte{}, enc...), 0xAB)); err == nil {
			t.Fatalf("decay %v: trailing byte decoded without error", decay)
		}
		bad := append([]byte{}, enc...)
		copy(bad, "NOPE")
		if _, err := DecodeState(bad); err == nil {
			t.Fatalf("decay %v: wrong magic decoded without error", decay)
		}
		// Narrowing the window to one day leaves the seed's earlier days
		// outside it; EncodeState never writes such a payload.
		narrow := append([]byte{}, enc...)
		binary.LittleEndian.PutUint32(narrow[len(streamStateMagic)+1:], 1)
		if _, err := DecodeState(narrow); err == nil || !strings.Contains(err.Error(), "before the window") {
			t.Fatalf("decay %v: transactions outside the window: %v", decay, err)
		}
		// A version-1 payload carried per-day summaries this build no
		// longer reads; it must fail the version check, not half-decode.
		v1 := append([]byte{}, enc...)
		v1[len(streamStateMagic)] = 1
		if _, err := DecodeState(v1); err == nil || !strings.Contains(err.Error(), "unsupported state version 1") {
			t.Fatalf("decay %v: version-1 payload: %v", decay, err)
		}
	}
}
