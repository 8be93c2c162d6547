package transport

import (
	"fmt"
	"os"
	"path/filepath"
)

// The checkpoint codec. A Checkpoint is a compact snapshot of a mining
// session's progress: for a cluster session, enough state to re-enter
// the PMIHP protocol after an aborted attempt without repeating the
// item-count exchange; for a stream miner, its window state. It travels
// inside the Init of a resumed cluster attempt and, for the stream
// miner, as a file; both use the same versioned encoding.
//
// The format is versioned independently of the frame protocol: a magic
// prefix, a version byte, then the body. Decoders from one version
// reject every other version with an attributed error (never a panic),
// so a stale daemon meeting a newer checkpoint degrades to a clean
// session failure the coordinator can see.

// CheckpointVersion is the current checkpoint format version. Version 2
// added the stream stage and its opaque state payload. Version 3 carried
// THT segments in their sparse wire form (wire version 6). Version 4
// drops the THT stage: every recovery re-splits the database, and THT
// segments are per-partition.
const CheckpointVersion = 4

// checkpointMagic prefixes every encoded checkpoint.
const checkpointMagic = "PMCK"

// Session stages a checkpoint can capture.
const (
	// StageNone: no collective has completed; a resume restarts the
	// protocol from the beginning.
	StageNone uint8 = 0
	// StageItemCounts: the global item-count all-reduce completed;
	// GlobalCounts holds the cluster-wide per-item support vector.
	StageItemCounts uint8 = 1
	// StageStream: an incremental-mining snapshot (internal/streammine) —
	// Stream holds the miner's encoded window state (retained per-day
	// counts, window bounds, frequent sets). Stream checkpoints never
	// carry the cluster-collective payloads of the other stages.
	StageStream uint8 = 2
)

// StageName names a checkpoint stage for logs and errors.
func StageName(stage uint8) string {
	switch stage {
	case StageNone:
		return "none"
	case StageItemCounts:
		return "item-counts"
	case StageStream:
		return "stream"
	}
	return fmt.Sprintf("stage-%d", stage)
}

// Checkpoint is a session snapshot taken after a collective exchange
// completes. ClusterID is the session lineage (the first attempt's id);
// Nodes is the logical node count of the attempt it resumes. The global
// item-count vector does not depend on how the database is cut, so a
// recovery may re-split the database across any roster and resume from
// it; the final frequent list stays byte-identical to the in-process
// miner's.
type Checkpoint struct {
	ClusterID uint64
	Nodes     int32
	Stage     uint8
	// GlobalCounts is the all-reduced per-item support vector; valid at
	// StageItemCounts.
	GlobalCounts []uint32
	// Stream is the opaque incremental-mining state payload; valid (and
	// required non-empty) at StageStream only. The transport layer never
	// interprets it — internal/streammine owns its encoding.
	Stream []byte
}

// AppendCheckpoint appends the versioned encoding of c to b.
func AppendCheckpoint(b []byte, c Checkpoint) []byte {
	b = append(b, checkpointMagic...)
	b = append(b, CheckpointVersion)
	b = appendU64(b, c.ClusterID)
	b = appendU32(b, uint32(c.Nodes))
	b = append(b, c.Stage)
	b = appendU32(b, uint32(len(c.GlobalCounts)))
	for _, v := range c.GlobalCounts {
		b = appendU32(b, v)
	}
	b = appendBytes(b, c.Stream)
	return b
}

// DecodeCheckpoint decodes a versioned checkpoint, rejecting truncated
// or corrupt input, unknown versions, and stage/payload mismatches with
// attributed errors.
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	var c Checkpoint
	if len(b) < len(checkpointMagic)+1 {
		return c, fmt.Errorf("transport: checkpoint header truncated: %d bytes", len(b))
	}
	if string(b[:len(checkpointMagic)]) != checkpointMagic {
		return c, fmt.Errorf("transport: not a checkpoint (magic %q)", b[:len(checkpointMagic)])
	}
	if v := b[len(checkpointMagic)]; v != CheckpointVersion {
		return c, fmt.Errorf("transport: unsupported checkpoint version %d (this build speaks version %d)",
			v, CheckpointVersion)
	}
	r := wireReader{b: b[len(checkpointMagic)+1:]}
	c.ClusterID = r.u64()
	c.Nodes = r.i32()
	c.Stage = r.u8()
	c.GlobalCounts = r.u32s()
	if len(c.GlobalCounts) == 0 {
		c.GlobalCounts = nil
	}
	c.Stream = r.bytes()
	if len(c.Stream) == 0 {
		c.Stream = nil
	}
	if r.err == nil {
		isStream := c.Stage == StageStream
		if c.Nodes <= 0 {
			r.fail("checkpoint for a %d-node cluster", c.Nodes)
		} else if c.Stage > StageStream {
			r.fail("unknown checkpoint stage %d", c.Stage)
		} else if isStream && len(c.Stream) == 0 {
			r.fail("stage %s checkpoint without stream state", StageName(c.Stage))
		} else if !isStream && len(c.Stream) != 0 {
			r.fail("stage %s checkpoint carries %d stream-state bytes", StageName(c.Stage), len(c.Stream))
		} else if (c.Stage == StageItemCounts) != (len(c.GlobalCounts) != 0) {
			r.fail("stage %s checkpoint carries %d item counts", StageName(c.Stage), len(c.GlobalCounts))
		}
	}
	return c, r.done()
}

// WriteCheckpointFile atomically persists the checkpoint: write to a
// temporary file in the same directory, then rename over the target, so
// a crash mid-write never leaves a truncated checkpoint behind. The
// target directory is created if missing.
func WriteCheckpointFile(path string, c Checkpoint) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("transport: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("transport: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(AppendCheckpoint(nil, c)); err != nil {
		tmp.Close()
		return fmt.Errorf("transport: writing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("transport: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("transport: installing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile loads and decodes a persisted checkpoint.
func ReadCheckpointFile(path string) (Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("transport: reading checkpoint: %w", err)
	}
	return DecodeCheckpoint(b)
}
