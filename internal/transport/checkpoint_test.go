package transport

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleCheckpoint(stage uint8) Checkpoint {
	c := Checkpoint{ClusterID: 0xfeedface, Nodes: 4, Stage: stage}
	if stage == StageStream {
		c.Nodes = 1
		c.Stream = []byte("stream-state-payload")
		return c
	}
	if stage == StageItemCounts {
		c.GlobalCounts = []uint32{5, 0, 12, 3, 9}
	}
	return c
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, stage := range []uint8{StageNone, StageItemCounts, StageStream} {
		in := sampleCheckpoint(stage)
		out, err := DecodeCheckpoint(AppendCheckpoint(nil, in))
		if err != nil {
			t.Fatalf("stage %s: %v", StageName(stage), err)
		}
		if out.ClusterID != in.ClusterID || out.Nodes != in.Nodes || out.Stage != in.Stage {
			t.Fatalf("stage %s: got %+v want %+v", StageName(stage), out, in)
		}
		if !reflect.DeepEqual(out.GlobalCounts, in.GlobalCounts) {
			t.Fatalf("stage %s: counts %v want %v", StageName(stage), out.GlobalCounts, in.GlobalCounts)
		}
		if string(out.Stream) != string(in.Stream) {
			t.Fatalf("stage %s: stream payload %q want %q", StageName(stage), out.Stream, in.Stream)
		}
	}
}

// A daemon built for the current checkpoint version must reject a
// checkpoint stamped with any other version with an error naming both
// versions — never decode garbage, never panic. Version 3, the last to
// carry THT segments, is rejected like any other, for cluster and
// stream checkpoints alike.
func TestCheckpointVersionSkew(t *testing.T) {
	for _, skew := range []uint8{CheckpointVersion + 1, CheckpointVersion - 1, 3} {
		for _, stage := range []uint8{StageItemCounts, StageStream} {
			enc := AppendCheckpoint(nil, sampleCheckpoint(stage))
			enc[len(checkpointMagic)] = skew
			_, err := DecodeCheckpoint(enc)
			if err == nil {
				t.Fatalf("want error for stage %s checkpoint version %d", StageName(stage), skew)
			}
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("version %d", skew)) ||
				!strings.Contains(msg, fmt.Sprintf("version %d", CheckpointVersion)) {
				t.Fatalf("version-skew error %q does not name both versions", msg)
			}
		}
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	enc := AppendCheckpoint(nil, sampleCheckpoint(StageItemCounts))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCheckpoint(enc[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", cut)
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte{}, enc...), 0xAB)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	bad := append([]byte{}, enc...)
	copy(bad, "NOPE")
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("wrong magic decoded without error")
	}
}

// The stage byte and the payload it promises must agree; mismatches are
// corruption, and rejecting them keeps the encoding canonical.
func TestCheckpointRejectsStageMismatch(t *testing.T) {
	cases := map[string]Checkpoint{
		"counts before item-count stage":  {ClusterID: 1, Nodes: 2, Stage: StageNone, GlobalCounts: []uint32{1}},
		"item-count stage without counts": {ClusterID: 1, Nodes: 2, Stage: StageItemCounts},
		"unknown stage":                   {ClusterID: 1, Nodes: 2, Stage: 9},
		"no nodes":                        {ClusterID: 1, Nodes: 0},
		"stream stage without state":      {ClusterID: 1, Nodes: 1, Stage: StageStream},
		"stream state on an item-count stage": {ClusterID: 1, Nodes: 2, Stage: StageItemCounts,
			GlobalCounts: []uint32{1}, Stream: []byte{7}},
		"stream stage with collectives": {ClusterID: 1, Nodes: 1, Stage: StageStream,
			GlobalCounts: []uint32{1}, Stream: []byte{7}},
	}
	for name, c := range cases {
		if _, err := DecodeCheckpoint(AppendCheckpoint(nil, c)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	in := sampleCheckpoint(StageItemCounts)
	if err := WriteCheckpointFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.ClusterID != in.ClusterID || out.Stage != in.Stage || !reflect.DeepEqual(out.GlobalCounts, in.GlobalCounts) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	// Overwrite must be atomic-and-clean, not append.
	in.Stage = StageNone
	in.GlobalCounts = nil
	if err := WriteCheckpointFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err = ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != StageNone || out.GlobalCounts != nil {
		t.Fatalf("overwrite left %+v", out)
	}
	if _, err := ReadCheckpointFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("want error reading a missing checkpoint")
	}
}
