package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pmihp/internal/itemset"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var stats WireStats
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, MsgCubeBlock, payload, &stats); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	typ, got, err := ReadFrame(&buf, &stats)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != MsgCubeBlock || !bytes.Equal(got, payload) {
		t.Fatalf("round trip got type=%d payload=%v", typ, got)
	}
	snap := stats.Snapshot()
	want := int64(frameHeaderLen + len(payload))
	if snap.MessagesSent != 1 || snap.MessagesReceived != 1 || snap.BytesSent != want || snap.BytesReceived != want {
		t.Fatalf("stats = %+v, want 1 msg / %d bytes each way", snap, want)
	}
}

func TestFrameRejectsBadVersionAndLength(t *testing.T) {
	// A peer one version behind (or ahead) fails with an error naming
	// its version.
	for _, skew := range []uint8{WireVersion - 1, WireVersion + 1} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgHello, []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[4] = skew
		_, _, err := ReadFrame(bytes.NewReader(raw), nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("wire version %d", skew)) {
			t.Fatalf("frame of wire version %d: error %v", skew, err)
		}
	}

	// Oversized length prefix must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, WireVersion, MsgHello}
	if _, _, err := ReadFrame(bytes.NewReader(huge), nil); err == nil {
		t.Fatal("want error for oversized frame length")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{ClusterID: 0xdeadbeefcafe, From: -1, To: 3, Purpose: PurposeControl}
	out, err := DecodeHello(AppendHello(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if _, err := DecodeHello(AppendHello(nil, Hello{Purpose: 99})); err == nil {
		t.Fatal("want error for unknown purpose")
	}
	// PurposePool is a valid purpose since wire version 5.
	if _, err := DecodeHello(AppendHello(nil, Hello{From: -1, To: -1, Purpose: PurposePool})); err != nil {
		t.Fatalf("pool purpose rejected: %v", err)
	}
}

func TestPoolJoinRoundTrip(t *testing.T) {
	in := PoolJoin{Addr: "127.0.0.1:7007", CapacityBytes: 1 << 30}
	out, err := DecodePoolJoin(AppendPoolJoin(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if _, err := DecodePoolJoin(AppendPoolJoin(nil, PoolJoin{Addr: ""})); err == nil {
		t.Fatal("want error for empty address")
	}
	if _, err := DecodePoolJoin(AppendPoolJoin(nil, PoolJoin{Addr: "a", CapacityBytes: -1})); err == nil {
		t.Fatal("want error for negative capacity")
	}
}

func TestInitRoundTrip(t *testing.T) {
	in := Init{
		ClusterID: 7, NodeID: 1, Nodes: 3,
		TotalDocs: 1000, NumItems: 5000, GlobalMin: 10,
		THTEntries: 400, PartitionSize: 100, MaxK: 8, Workers: 2,
		Partitioner:     1,
		HeartbeatMillis: 250,
		PeerAddrs:       []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		DB:              []byte("PMDB-partition-bytes"),
		Resume:          []byte("PMCK-resume-checkpoint"),
	}
	out, err := DecodeInit(AppendInit(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v want %+v", out, in)
	}

	bad := in
	bad.PeerAddrs = bad.PeerAddrs[:2]
	if _, err := DecodeInit(AppendInit(nil, bad)); err == nil {
		t.Fatal("want error for peer-address/node-count mismatch")
	}
	bad = in
	bad.Partitioner = 7
	if _, err := DecodeInit(AppendInit(nil, bad)); err == nil {
		t.Fatal("want error for unknown partitioner")
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	in := Heartbeat{Passes: 12}
	out, err := DecodeHeartbeat(AppendHeartbeat(nil, in))
	if err != nil || out != in {
		t.Fatalf("got %+v, %v; want %+v", out, err, in)
	}
	// An empty payload is a bare beacon, not corruption.
	if out, err := DecodeHeartbeat(nil); err != nil || out != (Heartbeat{}) {
		t.Fatalf("empty payload: got %+v, %v", out, err)
	}
	if _, err := DecodeHeartbeat(AppendHeartbeat(nil, Heartbeat{Passes: -1})); err == nil {
		t.Fatal("want error for negative pass count")
	}
	if _, err := DecodeHeartbeat([]byte{1, 2}); err == nil {
		t.Fatal("want error for truncated heartbeat")
	}
	if _, err := DecodeHeartbeat(append(AppendHeartbeat(nil, in), 0xAB)); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestCubeBlockRoundTrip(t *testing.T) {
	in := CubeBlock{
		Phase: PhaseTHT, Step: 2, From: 5,
		Blobs: []NodeBlob{
			{Node: 0, Data: []byte{9, 8, 7}},
			{Node: 5, Data: nil},
			{Node: 3, Data: []byte("tht-segment")},
		},
	}
	out, err := DecodeCubeBlock(AppendCubeBlock(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Phase != in.Phase || out.Step != in.Step || out.From != in.From || len(out.Blobs) != len(in.Blobs) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	for i := range in.Blobs {
		if out.Blobs[i].Node != in.Blobs[i].Node || !bytes.Equal(out.Blobs[i].Data, in.Blobs[i].Data) {
			t.Fatalf("blob %d: got %+v want %+v", i, out.Blobs[i], in.Blobs[i])
		}
	}
}

func TestCandidateBatchRoundTrip(t *testing.T) {
	in := CandidateBatch{K: 3, Items: []uint32{1, 2, 3, 4, 5, 6}}
	out, err := DecodeCandidateBatch(AppendCandidateBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	sets := out.Sets()
	if len(sets) != 2 || !sets[0].Equal(itemset.Itemset{1, 2, 3}) || !sets[1].Equal(itemset.Itemset{4, 5, 6}) {
		t.Fatalf("Sets() = %v", sets)
	}

	// Items not a multiple of K is corruption.
	raw := AppendCandidateBatch(nil, CandidateBatch{K: 3, Items: []uint32{1, 2, 3, 4}})
	if _, err := DecodeCandidateBatch(raw); err == nil {
		t.Fatal("want error for ragged batch")
	}
}

func TestCountVectorRoundTrip(t *testing.T) {
	in := CountVector{Counts: []int32{0, 5, -1, 1 << 30}}
	out, err := DecodeCountVector(AppendCountVector(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestCountedListRoundTrip(t *testing.T) {
	in := []itemset.Counted{
		{Set: itemset.Itemset{1, 2}, Count: 17},
		{Set: itemset.Itemset{3, 9, 12}, Count: 4},
	}
	out, err := decodeCountedList(AppendCountedList(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v want %+v", out, in)
	}

	// Non-increasing itemsets are rejected (they would corrupt the
	// merge's dedupe invariant downstream).
	bad := AppendCountedList(nil, []itemset.Counted{{Set: itemset.Itemset{5, 5}, Count: 1}})
	if _, err := decodeCountedList(bad); err == nil {
		t.Fatal("want error for non-increasing itemset")
	}
}

func TestNodeDoneRoundTrip(t *testing.T) {
	in := NodeDone{
		Node:         2,
		GlobalCounts: []uint32{3, 0, 9},
		Found: []itemset.Counted{
			{Set: itemset.Itemset{1, 4}, Count: 12},
		},
		Stats: WireStatsSnapshot{
			MessagesSent: 10, MessagesReceived: 11,
			BytesSent: 1000, BytesReceived: 1100, Retries: 2,
		},
		PhaseSeconds: [4]float64{0.5, 1.25, 0.0, 3.75},
		BusySeconds:  2.125,
	}
	out, err := DecodeNodeDone(AppendNodeDone(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := ErrorMsg{Text: "node 3: partition load failed"}
	out, err := DecodeError(AppendError(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

// decodeCountedList decodes a bare frequent-itemset list, the blob of
// the final exchange. Nodes never decode it (the coordinator reads the
// lists from NodeDone); tests use it to check AppendCountedList.
func decodeCountedList(b []byte) ([]itemset.Counted, error) {
	r := wireReader{b: b}
	list := r.countedList()
	return list, r.done()
}

func TestCountBlobRoundTrip(t *testing.T) {
	in := []int{0, 1, 0, 0, math.MaxInt32, 42, 0, 200}
	enc := AppendItemCounts(nil, in)
	got := make([]int, len(in))
	if err := AddItemCounts(got, enc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, in) {
		t.Fatalf("got %v want %v", got, in)
	}
	// Decoding adds into the caller's vector and allocates nothing.
	if allocs := testing.AllocsPerRun(9, func() { AddItemCounts(got, enc) }); allocs != 0 {
		t.Fatalf("AddItemCounts allocated %v times per call", allocs)
	}
	for it, c := range in {
		if got[it] != 11*c {
			t.Fatalf("after 11 decodes item %d holds %d, want %d", it, got[it], 11*c)
		}
	}
	// An all-zero vector is one byte, never the empty blob the
	// all-gather reads as a missing contribution.
	if z := AppendItemCounts(nil, make([]int, 5)); !bytes.Equal(z, []byte{0}) {
		t.Fatalf("all-zero counts encode as %x", z)
	}

	bad := map[string][]byte{
		"item outside universe": AppendItemCounts(nil, []int{0, 0, 0, 0, 0, 0, 0, 0, 1}),
		"repeated item":         {2, 2, 1, 0, 1},
		"zero count":            {1, 2, 0},
		"count past MaxInt32":   binary.AppendUvarint([]byte{1, 2}, math.MaxInt32+1),
		"non-minimal varint":    {1, 0x82, 0x00, 1},
		"more items than bytes": {4, 1, 1},
		"trailing bytes":        append(AppendItemCounts(nil, []int{3}), 0),
		"empty blob":            {},
	}
	for name, b := range bad {
		if err := AddItemCounts(make([]int, len(in)), b); err == nil {
			t.Errorf("%s: %x decoded without error", name, b)
		}
	}
}

// Every decoder must reject truncations and trailing garbage with an
// error (never a panic).
func TestDecodersRejectTruncationAndTrailing(t *testing.T) {
	encodings := map[string][]byte{
		"hello": AppendHello(nil, Hello{ClusterID: 1, From: 0, Purpose: PurposeCube}),
		"init": AppendInit(nil, Init{
			ClusterID: 1, NodeID: 0, Nodes: 1, TotalDocs: 2, NumItems: 3,
			GlobalMin: 1, THTEntries: 4, PartitionSize: 10, MaxK: 3, Workers: 1,
			PeerAddrs: []string{"a"}, DB: []byte{1},
		}),
		"cube":   AppendCubeBlock(nil, CubeBlock{Phase: PhaseItemCounts, Step: 0, From: 1, Blobs: []NodeBlob{{Node: 0, Data: []byte{1, 2}}}}),
		"batch":  AppendCandidateBatch(nil, CandidateBatch{K: 2, Items: []uint32{1, 2}}),
		"counts": AppendCountVector(nil, CountVector{Counts: []int32{1}}),
		"done":   AppendNodeDone(nil, NodeDone{Node: 0, Found: []itemset.Counted{{Set: itemset.Itemset{1}, Count: 1}}}),
		"error":  AppendError(nil, ErrorMsg{Text: "x"}),
		"pool":   AppendPoolJoin(nil, PoolJoin{Addr: "127.0.0.1:1"}),
		"items":  AppendItemCounts(nil, []int{0, 5, 0, 300, 1}),
	}
	decoders := map[string]func([]byte) error{
		"hello":  func(b []byte) error { _, err := DecodeHello(b); return err },
		"init":   func(b []byte) error { _, err := DecodeInit(b); return err },
		"cube":   func(b []byte) error { _, err := DecodeCubeBlock(b); return err },
		"batch":  func(b []byte) error { _, err := DecodeCandidateBatch(b); return err },
		"counts": func(b []byte) error { _, err := DecodeCountVector(b); return err },
		"done":   func(b []byte) error { _, err := DecodeNodeDone(b); return err },
		"error":  func(b []byte) error { _, err := DecodeError(b); return err },
		"pool":   func(b []byte) error { _, err := DecodePoolJoin(b); return err },
		"items":  func(b []byte) error { return AddItemCounts(make([]int, 5), b) },
	}
	for name, enc := range encodings {
		dec := decoders[name]
		for cut := 0; cut < len(enc); cut++ {
			if err := dec(enc[:cut]); err == nil {
				t.Errorf("%s: truncation to %d bytes decoded without error", name, cut)
			}
		}
		if err := dec(append(append([]byte{}, enc...), 0xAB)); err == nil {
			t.Errorf("%s: trailing byte decoded without error", name)
		}
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	calls := 0
	err := Retry(t.Context(), RetryPolicy{Attempts: 5, BaseDelay: 1, MaxDelay: 1}, nil, func() error {
		calls++
		return Permanent(errFake)
	})
	if err == nil || calls != 1 {
		t.Fatalf("calls=%d err=%v; want 1 call and an error", calls, err)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	var stats WireStats
	calls := 0
	err := Retry(t.Context(), RetryPolicy{Attempts: 3, BaseDelay: 1, MaxDelay: 1}, &stats, func() error {
		calls++
		return errFake
	})
	if err == nil || calls != 3 {
		t.Fatalf("calls=%d err=%v; want 3 calls and an error", calls, err)
	}
	if got := stats.Snapshot().Retries; got != 2 {
		t.Fatalf("retries=%d, want 2", got)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(t.Context(), RetryPolicy{Attempts: 5, BaseDelay: 1, MaxDelay: 1}, nil, func() error {
		calls++
		if calls < 3 {
			return errFake
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v; want success on call 3", calls, err)
	}
}

var errFake = bytes.ErrTooLarge
