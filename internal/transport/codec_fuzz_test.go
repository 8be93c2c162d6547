package transport

import (
	"bytes"
	"testing"

	"pmihp/internal/itemset"
)

// FuzzCodec throws arbitrary bytes at every decoder. The invariants:
// decoders never panic on any input, and whatever decodes successfully
// re-encodes to the exact bytes it was decoded from (the codec has one
// canonical encoding per message).
func FuzzCodec(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(MsgHello), AppendHello(nil, Hello{ClusterID: 1, From: 2, Purpose: PurposeCube}))
	f.Add(uint8(MsgInit), AppendInit(nil, Init{
		ClusterID: 9, NodeID: 0, Nodes: 2, TotalDocs: 10, NumItems: 20,
		GlobalMin: 2, THTEntries: 100, PartitionSize: 50, MaxK: 4, Workers: 1,
		PeerAddrs: []string{"127.0.0.1:7001", "127.0.0.1:7002"}, DB: []byte("PMDB"),
	}))
	f.Add(uint8(MsgCubeBlock), AppendCubeBlock(nil, CubeBlock{
		Phase: PhaseTHT, Step: 1, From: 3,
		Blobs: []NodeBlob{{Node: 3, Data: []byte{1, 2, 3}}, {Node: 0, Data: nil}},
	}))
	f.Add(uint8(MsgCandidateBatch), AppendCandidateBatch(nil, CandidateBatch{K: 2, Items: []uint32{1, 2, 3, 4}}))
	f.Add(uint8(MsgCountVector), AppendCountVector(nil, CountVector{Counts: []int32{7, 0, 9}}))
	f.Add(uint8(MsgNodeDone), AppendNodeDone(nil, NodeDone{
		Node: 1, GlobalCounts: []uint32{4, 5},
		Found: []itemset.Counted{{Set: itemset.Itemset{2, 7}, Count: 3}},
		Stats: WireStatsSnapshot{MessagesSent: 1, BytesSent: 100},
	}))
	f.Add(uint8(MsgError), AppendError(nil, ErrorMsg{Text: "boom"}))
	f.Add(uint8(MsgShutdown), AppendCountedList(nil, []itemset.Counted{{Set: itemset.Itemset{1, 2, 3}, Count: 5}}))
	f.Add(uint8(MsgPoolJoin), AppendPoolJoin(nil, PoolJoin{Addr: "127.0.0.1:7010", CapacityBytes: 1 << 20}))
	f.Add(uint8(0), AppendItemCounts(nil, []int{0, 3, 0, 0, 1 << 20, 7, 0, 0, 0, 1}))

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		switch which % 10 {
		case 0:
			// The item-count blob, over a universe wider than one
			// varint byte of gap.
			counts := make([]int, 1<<10)
			if err := AddItemCounts(counts, data); err == nil {
				if got := AppendItemCounts(nil, counts); !bytes.Equal(got, data) {
					t.Fatalf("item-count re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 1:
			if h, err := DecodeHello(data); err == nil {
				if got := AppendHello(nil, h); !bytes.Equal(got, data) {
					t.Fatalf("hello re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 2:
			if m, err := DecodeInit(data); err == nil {
				if got := AppendInit(nil, m); !bytes.Equal(got, data) {
					t.Fatalf("init re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 3:
			if m, err := DecodeCubeBlock(data); err == nil {
				if got := AppendCubeBlock(nil, m); !bytes.Equal(got, data) {
					t.Fatalf("cube re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 4:
			if m, err := DecodeCandidateBatch(data); err == nil {
				if got := AppendCandidateBatch(nil, m); !bytes.Equal(got, data) {
					t.Fatalf("batch re-encode mismatch: %x vs %x", got, data)
				}
				m.Sets() // must not panic either
			}
		case 5:
			if m, err := DecodeCountVector(data); err == nil {
				if got := AppendCountVector(nil, m); !bytes.Equal(got, data) {
					t.Fatalf("counts re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 6:
			if m, err := DecodeNodeDone(data); err == nil {
				if got := AppendNodeDone(nil, m); !bytes.Equal(got, data) {
					t.Fatalf("done re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 7:
			if m, err := DecodeError(data); err == nil {
				if got := AppendError(nil, m); !bytes.Equal(got, data) {
					t.Fatalf("error re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 8:
			if list, err := decodeCountedList(data); err == nil {
				if got := AppendCountedList(nil, list); !bytes.Equal(got, data) {
					t.Fatalf("counted-list re-encode mismatch: %x vs %x", got, data)
				}
			}
		case 9:
			if m, err := DecodePoolJoin(data); err == nil {
				if got := AppendPoolJoin(nil, m); !bytes.Equal(got, data) {
					t.Fatalf("pool-join re-encode mismatch: %x vs %x", got, data)
				}
			}
		}
	})
}

// FuzzFrame holds ReadFrame to the same bar: arbitrary byte streams
// must produce an error or a frame, never a panic or an oversized
// allocation.
func FuzzFrame(f *testing.F) {
	var ok bytes.Buffer
	WriteFrame(&ok, MsgHello, []byte("hi"), nil)
	f.Add(ok.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err == nil {
			var buf bytes.Buffer
			if werr := WriteFrame(&buf, typ, payload, nil); werr != nil {
				t.Fatalf("re-framing decoded frame failed: %v", werr)
			}
			if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
				t.Fatalf("frame re-encode mismatch")
			}
		}
	})
}
