package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
)

// The wire codec. Every message body is a flat little-endian encoding
// with explicit lengths; decoders validate every length against the
// remaining payload before allocating, so truncated or corrupt frames
// produce errors, never panics or unbounded allocations (the fuzz test
// in codec_fuzz_test.go holds them to that).

// Hello opens every connection and declares what it is for.
type Hello struct {
	ClusterID uint64 // session identity; mismatches are rejected
	From      int32  // sender's node id (-1 for the coordinator)
	// To is the logical node the connection targets. After a failover a
	// daemon may host several logical nodes of one session, so the
	// listener routes peer connections by (ClusterID, To) rather than by
	// cluster alone. -1 addresses the daemon itself (control plane).
	To      int32
	Purpose uint8 // PurposeControl | PurposeCube | PurposePoll
}

// Init is the coordinator's session opener to one node: the cluster
// geometry, the mining parameters resolved at the coordinator, and the
// node's database partition (txdb binary format).
type Init struct {
	ClusterID uint64
	NodeID    int32
	Nodes     int32

	TotalDocs int32 // |D|, for the local minimum support derivation
	NumItems  int32
	GlobalMin int32 // global minimum support count

	THTEntries    int32 // global THT slots (each node builds entries/N)
	PartitionSize int32
	MaxK          int32
	Workers       int32 // intra-node workers (0 = GOMAXPROCS)

	// Partitioner records how the coordinator cut the session's
	// partitions (mining.PartitionByCount or mining.PartitionByWork).
	// The partition a node receives is already cut; the field makes the
	// choice visible in daemon logs and traces, and pins it across
	// failover resumptions (the resolved choice, like GlobalMin, never
	// changes for a session's lifetime).
	Partitioner int32

	// HeartbeatMillis is the interval at which the daemon beats on the
	// control connection (0 selects the daemon's default).
	HeartbeatMillis int32

	PeerAddrs []string // node listen addresses, indexed by node id
	DB        []byte   // txdb.Encode bytes of this node's partition

	// Resume, when non-empty, is an encoded Checkpoint: the session is a
	// failover resumption and the node skips the collectives the
	// checkpoint already covers.
	Resume []byte
}

// NodeBlob is one node's contribution inside a CubeBlock.
type NodeBlob struct {
	Node int32
	Data []byte
}

// CubeBlock carries the blobs a node has accumulated so far in an
// all-gather, exchanged with its dimension-d partner (or with the hub
// on the non-power-of-two star fallback).
type CubeBlock struct {
	Phase Phase
	Step  uint8
	From  int32
	Blobs []NodeBlob
}

// CandidateBatch asks a peer for the local support counts of a batch of
// same-size itemsets (PMIHP's poll request).
type CandidateBatch struct {
	K     int32
	Items []uint32 // flattened itemsets, len = K * batch size
}

// Sets materializes the batch as itemsets (views into Items).
func (b *CandidateBatch) Sets() []itemset.Itemset {
	k := int(b.K)
	n := len(b.Items) / k
	sets := make([]itemset.Itemset, n)
	for i := 0; i < n; i++ {
		sets[i] = itemset.Itemset(b.Items[i*k : (i+1)*k])
	}
	return sets
}

// CountVector is the poll reply: local support counts aligned with the
// request batch.
type CountVector struct {
	Counts []int32
}

// NodeDone is a node's terminal report to the coordinator: its globally
// frequent itemsets (exact counts), node 0 additionally carries the
// all-reduced global item counts, plus measured wire statistics and the
// wall-clock seconds of each exchange phase.
type NodeDone struct {
	Node         int32
	GlobalCounts []uint32 // only from node 0; nil otherwise
	Found        []itemset.Counted
	Stats        WireStatsSnapshot
	// PhaseSeconds: [0] item-count exchange, [1] THT exchange,
	// [2] candidate polling, [3] final frequent-list exchange.
	PhaseSeconds [4]float64
	// BusySeconds is the node's deterministic modeled busy time (mining
	// plus poll service, from the work-unit accounting) — what the
	// coordinator compares across the fleet to compute the session's
	// pass-imbalance ratio. Modeled, not wall clock, so the ratio is
	// reproducible across machines.
	BusySeconds float64
}

// PoolJoin is a daemon's registration with a worker pool: its dialable
// listen address (what coordinators put in a session's roster) and an
// optional capacity advertisement for admission control.
type PoolJoin struct {
	// Addr is the daemon's listen address, as peers and coordinators
	// should dial it.
	Addr string
	// CapacityBytes bounds the session bytes admission control may
	// reserve against this member (0: unlimited).
	CapacityBytes int64
}

// Heartbeat is a daemon's periodic liveness beacon on the control
// connection, carrying the node's mining progress so the coordinator
// can compare pass positions across the fleet (the straggler
// detector's input).
type Heartbeat struct {
	// Passes is the number of local counting passes the node has
	// completed so far (0 until local mining starts).
	Passes int32
}

// ErrorMsg aborts a session with an attributed cause.
type ErrorMsg struct {
	Text string
}

// ---- encoding ----

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// AppendHello encodes a Hello.
func AppendHello(b []byte, h Hello) []byte {
	b = appendU64(b, h.ClusterID)
	b = appendU32(b, uint32(h.From))
	b = appendU32(b, uint32(h.To))
	return append(b, h.Purpose)
}

// AppendInit encodes an Init.
func AppendInit(b []byte, m Init) []byte {
	b = appendU64(b, m.ClusterID)
	for _, v := range []int32{
		m.NodeID, m.Nodes, m.TotalDocs, m.NumItems, m.GlobalMin,
		m.THTEntries, m.PartitionSize, m.MaxK, m.Workers,
		m.HeartbeatMillis, m.Partitioner,
	} {
		b = appendU32(b, uint32(v))
	}
	b = appendU32(b, uint32(len(m.PeerAddrs)))
	for _, a := range m.PeerAddrs {
		b = appendStr(b, a)
	}
	b = appendBytes(b, m.DB)
	return appendBytes(b, m.Resume)
}

// AppendCubeBlock encodes a CubeBlock.
func AppendCubeBlock(b []byte, m CubeBlock) []byte {
	b = append(b, uint8(m.Phase), m.Step)
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(len(m.Blobs)))
	for _, nb := range m.Blobs {
		b = appendU32(b, uint32(nb.Node))
		b = appendBytes(b, nb.Data)
	}
	return b
}

// AppendCandidateBatch encodes a CandidateBatch.
func AppendCandidateBatch(b []byte, m CandidateBatch) []byte {
	b = appendU32(b, uint32(m.K))
	b = appendU32(b, uint32(len(m.Items)))
	for _, it := range m.Items {
		b = appendU32(b, it)
	}
	return b
}

// AppendCountVector encodes a CountVector.
func AppendCountVector(b []byte, m CountVector) []byte {
	b = appendU32(b, uint32(len(m.Counts)))
	for _, c := range m.Counts {
		b = appendU32(b, uint32(c))
	}
	return b
}

// AppendCountedList encodes a frequent-itemset list (the merged-F_k
// payload of the final exchange and of NodeDone).
func AppendCountedList(b []byte, list []itemset.Counted) []byte {
	b = appendU32(b, uint32(len(list)))
	for _, c := range list {
		b = appendU32(b, uint32(len(c.Set)))
		for _, it := range c.Set {
			b = appendU32(b, it)
		}
		b = appendU32(b, uint32(c.Count))
	}
	return b
}

// AppendNodeDone encodes a NodeDone.
func AppendNodeDone(b []byte, m NodeDone) []byte {
	b = appendU32(b, uint32(m.Node))
	b = appendU32(b, uint32(len(m.GlobalCounts)))
	for _, c := range m.GlobalCounts {
		b = appendU32(b, c)
	}
	b = AppendCountedList(b, m.Found)
	b = appendU64(b, uint64(m.Stats.MessagesSent))
	b = appendU64(b, uint64(m.Stats.MessagesReceived))
	b = appendU64(b, uint64(m.Stats.BytesSent))
	b = appendU64(b, uint64(m.Stats.BytesReceived))
	b = appendU64(b, uint64(m.Stats.Retries))
	for _, s := range m.PhaseSeconds {
		b = appendF64(b, s)
	}
	return appendF64(b, m.BusySeconds)
}

// AppendPoolJoin encodes a PoolJoin.
func AppendPoolJoin(b []byte, m PoolJoin) []byte {
	b = appendStr(b, m.Addr)
	return appendU64(b, uint64(m.CapacityBytes))
}

// AppendHeartbeat encodes a Heartbeat.
func AppendHeartbeat(b []byte, m Heartbeat) []byte {
	return appendU32(b, uint32(m.Passes))
}

// AppendError encodes an ErrorMsg.
func AppendError(b []byte, m ErrorMsg) []byte {
	return appendStr(b, m.Text)
}

// AppendItemCounts encodes pass-1 item counts, indexed by item — the
// blob of the item-count exchange. Most of the vocabulary never occurs
// in one node's partition, so the blob lists only the non-zero counts,
// every field an unsigned varint in its minimal encoding:
//
//	nnz, nnz × { itemGap count }
//
// Items appear in ascending order; a gap is the distance from the
// previous listed item, counted from -1, so every gap is at least 1.
// An all-zero vector still encodes as one byte: the all-gather treats an
// empty blob as a missing contribution. The cost model keeps pricing the
// dense vector of 4 bytes per item, as the paper does.
func AppendItemCounts(b []byte, counts []int) []byte {
	nnz := 0
	for _, c := range counts {
		if c != 0 {
			nnz++
		}
	}
	b = binary.AppendUvarint(b, uint64(nnz))
	prev := -1
	for it, c := range counts {
		if c != 0 {
			b = binary.AppendUvarint(b, uint64(it-prev))
			b = binary.AppendUvarint(b, uint64(c))
			prev = it
		}
	}
	return b
}

// ---- decoding ----

// wireReader is a bounds-checked cursor over a payload. Errors are
// sticky; every accessor returns a zero value once an error occurred.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: "+format, args...)
	}
}

func (r *wireReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.b)-r.off < n {
		r.fail("truncated payload: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return false
	}
	return true
}

func (r *wireReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) i32() int32 { return int32(r.u32()) }

func (r *wireReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// uvarint reads a minimally encoded unsigned varint that must lie in
// [lo, hi]; minimality keeps the encodings that use varints canonical.
func (r *wireReader) uvarint(lo, hi uint64, what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("truncated or non-minimal varint at offset %d of %d", r.off, len(r.b))
		return 0
	}
	if v < lo || v > hi {
		r.fail("%s %d outside [%d, %d]", what, v, lo, hi)
		return 0
	}
	r.off += n
	return v
}

// count reads a u32 length whose elements occupy elemSize bytes each,
// rejecting counts the remaining payload cannot possibly hold.
func (r *wireReader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(r.b)-r.off {
		r.fail("length %d exceeds remaining payload %d", n, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *wireReader) bytes() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	v := make([]byte, n)
	copy(v, r.b[r.off:])
	r.off += n
	return v
}

func (r *wireReader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

func (r *wireReader) u32s() []uint32 {
	n := r.count(4)
	if r.err != nil {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = r.u32()
	}
	return v
}

// done finishes a decode: any pending error wins; trailing bytes are an
// error too (a valid encoder never produces them, so their presence
// means corruption).
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("transport: %d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}

// DecodeHello decodes a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	r := wireReader{b: b}
	h := Hello{ClusterID: r.u64(), From: r.i32(), To: r.i32(), Purpose: r.u8()}
	if h.Purpose < PurposeControl || h.Purpose > PurposePool {
		r.fail("unknown connection purpose %d", h.Purpose)
	}
	return h, r.done()
}

// DecodeInit decodes an Init payload.
func DecodeInit(b []byte) (Init, error) {
	r := wireReader{b: b}
	m := Init{ClusterID: r.u64()}
	for _, p := range []*int32{
		&m.NodeID, &m.Nodes, &m.TotalDocs, &m.NumItems, &m.GlobalMin,
		&m.THTEntries, &m.PartitionSize, &m.MaxK, &m.Workers,
		&m.HeartbeatMillis, &m.Partitioner,
	} {
		*p = r.i32()
	}
	nAddrs := r.count(4) // a string needs at least its 4-byte length
	for i := 0; i < nAddrs && r.err == nil; i++ {
		m.PeerAddrs = append(m.PeerAddrs, r.str())
	}
	m.DB = r.bytes()
	m.Resume = r.bytes()
	if r.err == nil {
		if m.Nodes <= 0 || m.NodeID < 0 || m.NodeID >= m.Nodes {
			r.fail("invalid geometry: node %d of %d", m.NodeID, m.Nodes)
		} else if len(m.PeerAddrs) != int(m.Nodes) {
			r.fail("init lists %d peer addresses for %d nodes", len(m.PeerAddrs), m.Nodes)
		} else if !mining.Partitioner(m.Partitioner).Valid() {
			r.fail("invalid partitioner %d", m.Partitioner)
		}
	}
	return m, r.done()
}

// DecodeCubeBlock decodes a CubeBlock payload.
func DecodeCubeBlock(b []byte) (CubeBlock, error) {
	r := wireReader{b: b}
	m := CubeBlock{Phase: Phase(r.u8()), Step: r.u8(), From: r.i32()}
	n := r.count(8) // a blob needs node id + data length at minimum
	for i := 0; i < n && r.err == nil; i++ {
		m.Blobs = append(m.Blobs, NodeBlob{Node: r.i32(), Data: r.bytes()})
	}
	return m, r.done()
}

// DecodeCandidateBatch decodes a CandidateBatch payload.
func DecodeCandidateBatch(b []byte) (CandidateBatch, error) {
	r := wireReader{b: b}
	m := CandidateBatch{K: r.i32(), Items: r.u32s()}
	if r.err == nil {
		if m.K <= 0 {
			r.fail("candidate batch with k=%d", m.K)
		} else if len(m.Items)%int(m.K) != 0 {
			r.fail("candidate batch of %d items is not a multiple of k=%d", len(m.Items), m.K)
		}
	}
	return m, r.done()
}

// DecodeCountVector decodes a CountVector payload.
func DecodeCountVector(b []byte) (CountVector, error) {
	r := wireReader{b: b}
	raw := r.u32s()
	m := CountVector{Counts: make([]int32, len(raw))}
	for i, v := range raw {
		m.Counts[i] = int32(v)
	}
	return m, r.done()
}

// countedList decodes a frequent-itemset list in place.
func (r *wireReader) countedList() []itemset.Counted {
	n := r.count(8) // an entry needs k + count at minimum
	var list []itemset.Counted
	for i := 0; i < n && r.err == nil; i++ {
		k := r.count(4)
		set := make(itemset.Itemset, k)
		for j := 0; j < k && r.err == nil; j++ {
			set[j] = r.u32()
		}
		c := int(r.u32())
		if r.err == nil && !set.Valid() {
			r.fail("counted list entry %d is not strictly increasing", i)
		}
		list = append(list, itemset.Counted{Set: set, Count: c})
	}
	return list
}

// DecodeNodeDone decodes a NodeDone payload.
func DecodeNodeDone(b []byte) (NodeDone, error) {
	r := wireReader{b: b}
	m := NodeDone{Node: r.i32(), GlobalCounts: r.u32s()}
	m.Found = r.countedList()
	m.Stats = WireStatsSnapshot{
		MessagesSent:     int64(r.u64()),
		MessagesReceived: int64(r.u64()),
		BytesSent:        int64(r.u64()),
		BytesReceived:    int64(r.u64()),
		Retries:          int64(r.u64()),
	}
	for i := range m.PhaseSeconds {
		m.PhaseSeconds[i] = r.f64()
	}
	m.BusySeconds = r.f64()
	return m, r.done()
}

// DecodePoolJoin decodes a PoolJoin payload.
func DecodePoolJoin(b []byte) (PoolJoin, error) {
	r := wireReader{b: b}
	m := PoolJoin{Addr: r.str(), CapacityBytes: int64(r.u64())}
	if r.err == nil {
		if m.Addr == "" {
			r.fail("pool join without an address")
		} else if m.CapacityBytes < 0 {
			r.fail("pool join with negative capacity %d", m.CapacityBytes)
		}
	}
	return m, r.done()
}

// DecodeHeartbeat decodes a Heartbeat payload. An empty payload is a
// bare liveness beacon (no progress to report yet) and decodes to the
// zero Heartbeat.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	if len(b) == 0 {
		return Heartbeat{}, nil
	}
	r := wireReader{b: b}
	m := Heartbeat{Passes: r.i32()}
	if r.err == nil && m.Passes < 0 {
		r.fail("negative heartbeat pass count %d", m.Passes)
	}
	return m, r.done()
}

// DecodeError decodes an ErrorMsg payload.
func DecodeError(b []byte) (ErrorMsg, error) {
	r := wireReader{b: b}
	m := ErrorMsg{Text: r.str()}
	return m, r.done()
}

// AddItemCounts decodes an item-count blob (AppendItemCounts) and adds
// every count to dst, whose length is the session's item universe. It
// allocates nothing. It rejects an item outside dst, a zero count or
// one above MaxInt32, a non-minimal varint and trailing bytes; after an
// error dst holds an unspecified part of the blob's counts.
func AddItemCounts(dst []int, b []byte) error {
	r := wireReader{b: b}
	// An entry takes at least two bytes, so the blob bounds the total.
	nnz := r.uvarint(0, uint64(min(len(dst), len(b)/2)), "item total")
	item := -1
	for i := uint64(0); i < nnz && r.err == nil; i++ {
		gap := r.uvarint(1, uint64(len(dst)-1-item), "item gap")
		c := r.uvarint(1, math.MaxInt32, "item count")
		if r.err == nil {
			item += int(gap)
			dst[item] += int(c)
		}
	}
	return r.done()
}
