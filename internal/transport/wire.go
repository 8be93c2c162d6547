// Package transport is the real communication substrate behind the
// parallel miners: a length-prefixed binary framing, a versioned wire
// codec for PMIHP's messages (candidate sets, local count vectors, THT
// segments, merged frequent lists), and a pluggable Exchange with two
// implementations — an in-process channel exchange (the default used by
// tests and the simulated runtime, no sockets involved) and a TCP
// exchange that runs the logical binary n-cube over real connections
// with dial/accept deadlines and bounded exponential-backoff retry.
//
// The simulated cluster in internal/cluster models this traffic; this
// package measures it. The two coexist: internal/core keeps mining over
// the modeled fabric with byte-identical simulated clocks, while
// internal/distmine drives the same algorithm across OS processes over
// this package and reports measured wire metrics alongside the model's.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
)

// WireVersion is the protocol version carried in every frame header.
// Decoders reject frames from other versions. Version 2 added the
// Hello routing target (To), session heartbeats/progress reports, and
// the resumable-session fields of Init. Version 3 added the Init
// posting-density threshold. Version 4 added the Init partitioner and
// the heartbeat pass-progress payload. Version 5 added the worker-pool
// membership messages (PurposePool, MsgPoolJoin/MsgPoolLeave) and the
// NodeDone busy-seconds field. Version 6 made the item-count and THT
// segment blobs of the exchanges sparse (AppendItemCounts,
// tht.Local.AppendWire). Version 7 dropped the Init posting-density
// threshold: the posting layout is fixed inside each node.
const WireVersion = 7

// MaxFrame bounds a frame payload; oversized length prefixes are
// rejected before any allocation (a corrupt or hostile peer cannot make
// a node allocate gigabytes).
const MaxFrame = 1 << 28

// frameHeaderLen is the fixed frame prefix: u32 payload length,
// u8 version, u8 message type.
const frameHeaderLen = 6

// Message types.
const (
	MsgHello uint8 = iota + 1
	MsgInit
	MsgCubeBlock
	MsgCandidateBatch
	MsgCountVector
	MsgNodeDone
	MsgError
	MsgShutdown
	// MsgHeartbeat is a daemon's periodic liveness beacon on the control
	// connection; the coordinator declares a node dead after a
	// configurable quiet interval. The payload is an encoded Heartbeat
	// carrying the node's pass progress, which the coordinator's
	// straggler detector compares across the fleet.
	MsgHeartbeat
	// MsgProgress carries an encoded Checkpoint from node 0 to the
	// coordinator after a collective completes, so a failed session can
	// resume instead of restarting from scratch.
	MsgProgress
	// MsgPoolJoin is a daemon's registration with a worker pool: the
	// first frame after the PurposePool Hello, carrying an encoded
	// PoolJoin (the daemon's dialable address and capacity). The same
	// connection then carries periodic MsgHeartbeat beacons; the pool
	// declares the member gone when the connection breaks or falls
	// quiet past its heartbeat timeout.
	MsgPoolJoin
	// MsgPoolLeave is a member's graceful deregistration (empty
	// payload); the pool drops it immediately instead of waiting out
	// the heartbeat timeout.
	MsgPoolLeave
)

// Connection purposes carried by Hello.
const (
	PurposeControl uint8 = 1 // coordinator driving a node daemon
	PurposeCube    uint8 = 2 // one n-cube (or star) exchange step
	PurposePoll    uint8 = 3 // persistent candidate-poll channel
	PurposePool    uint8 = 4 // daemon registering with a worker pool
)

// WireStats accumulates a node's real traffic counters. All methods are
// safe for concurrent use; collectives, poll clients, and accept
// handlers all feed the same instance.
type WireStats struct {
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	retries   atomic.Int64
}

// WireStatsSnapshot is a point-in-time copy of WireStats, and the form
// stats take on the wire (inside NodeDone) and in summaries.
type WireStatsSnapshot struct {
	MessagesSent     int64
	MessagesReceived int64
	BytesSent        int64
	BytesReceived    int64
	Retries          int64
}

// AddSent records n originated messages totalling b wire bytes.
func (s *WireStats) AddSent(n int, b int64) {
	s.msgsSent.Add(int64(n))
	s.bytesSent.Add(b)
}

// AddRecv records n received messages totalling b wire bytes.
func (s *WireStats) AddRecv(n int, b int64) {
	s.msgsRecv.Add(int64(n))
	s.bytesRecv.Add(b)
}

// AddRetry records a retried operation.
func (s *WireStats) AddRetry() { s.retries.Add(1) }

// Snapshot returns the current totals.
func (s *WireStats) Snapshot() WireStatsSnapshot {
	return WireStatsSnapshot{
		MessagesSent:     s.msgsSent.Load(),
		MessagesReceived: s.msgsRecv.Load(),
		BytesSent:        s.bytesSent.Load(),
		BytesReceived:    s.bytesRecv.Load(),
		Retries:          s.retries.Load(),
	}
}

// Add folds another snapshot into this one (cluster-wide aggregation).
func (s *WireStatsSnapshot) Add(o WireStatsSnapshot) {
	s.MessagesSent += o.MessagesSent
	s.MessagesReceived += o.MessagesReceived
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.Retries += o.Retries
}

// TotalBytes returns bytes sent plus received.
func (s WireStatsSnapshot) TotalBytes() int64 { return s.BytesSent + s.BytesReceived }

// WriteFrame writes one length-prefixed frame. stats may be nil.
func WriteFrame(w io.Writer, msgType uint8, payload []byte, stats *WireStats) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("transport: frame payload %d exceeds limit %d", len(payload), MaxFrame)
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf[4] = WireVersion
	buf[5] = msgType
	copy(buf[frameHeaderLen:], payload)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if stats != nil {
		stats.AddSent(1, int64(len(buf)))
	}
	return nil
}

// ReadFrame reads one frame, validating the version and the length
// prefix before allocating the payload. stats may be nil.
func ReadFrame(r io.Reader, stats *WireStats) (msgType uint8, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("transport: frame length %d exceeds limit %d", n, MaxFrame)
	}
	if hdr[4] != WireVersion {
		return 0, nil, fmt.Errorf("transport: unsupported wire version %d (want %d)", hdr[4], WireVersion)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("transport: short frame payload: %w", err)
	}
	if stats != nil {
		stats.AddRecv(1, int64(frameHeaderLen)+int64(n))
	}
	return hdr[5], payload, nil
}
