package transport

import (
	"bytes"
	"testing"
)

// FuzzCheckpoint holds the checkpoint codec to the same bar as the
// frame codec (codec_fuzz_test.go): arbitrary input never panics, and
// anything that decodes successfully re-encodes to the exact bytes it
// came from — one canonical encoding per checkpoint.
func FuzzCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(AppendCheckpoint(nil, sampleCheckpoint(StageNone)))
	f.Add(AppendCheckpoint(nil, sampleCheckpoint(StageItemCounts)))
	f.Add(AppendCheckpoint(nil, sampleCheckpoint(StageStream)))
	skew := AppendCheckpoint(nil, sampleCheckpoint(StageItemCounts))
	skew[len(checkpointMagic)] = CheckpointVersion + 1
	f.Add(skew)
	// Version 3 still carried THT segments; this build must reject it.
	v3 := AppendCheckpoint(nil, sampleCheckpoint(StageItemCounts))
	v3[len(checkpointMagic)] = 3
	f.Add(v3)
	// A stream checkpoint whose stage byte claims a cluster stage: the
	// stage/payload agreement checks must reject it, not decode garbage.
	cross := AppendCheckpoint(nil, sampleCheckpoint(StageStream))
	f.Add(cross)
	crossStage := append([]byte(nil), cross...)
	crossStage[len(checkpointMagic)+1+8+4] = StageItemCounts
	f.Add(crossStage)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if got := AppendCheckpoint(nil, c); !bytes.Equal(got, data) {
			t.Fatalf("checkpoint re-encode mismatch: %x vs %x", got, data)
		}
	})
}
