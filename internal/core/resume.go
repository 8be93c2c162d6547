package core

import (
	"fmt"

	"pmihp/internal/tht"
)

// Resume seams for the fault-tolerant cluster runtime. A resumed node
// re-enters the PMIHP protocol from a checkpoint instead of repeating
// the collectives that already completed; these helpers rebuild the
// exact state those collectives would have produced, so the mining that
// follows is byte-identical to an uninterrupted run (pinned by
// resume_test.go).

// countsFromWire converts checkpointed global item counts back into the
// vector FrequentItems consumes, validating the item-universe width.
func countsFromWire(counts []uint32, numItems int) ([]int, error) {
	if len(counts) != numItems {
		return nil, fmt.Errorf("checkpoint carries %d item counts, want %d", len(counts), numItems)
	}
	global := make([]int, numItems)
	for it, c := range counts {
		global[it] = int(c)
	}
	return global, nil
}

// segmentsFromWire rebuilds the cascaded global THT view from
// checkpointed wire blobs (one per logical node, in node order), each
// decoded against the session's geometry: entries slots per row, item
// ids below numItems. The wire form carries exactly the post-Retain
// counter rows and the decoder derives the masks from them, so the
// cascade bounds of the result equal those of the segments the original
// THT exchange delivered.
func segmentsFromWire(blobs [][]byte, entries, numItems int) (*tht.Global, error) {
	if len(blobs) == 0 {
		return nil, fmt.Errorf("core: checkpoint carries no THT segments")
	}
	segments := make([]*tht.Local, len(blobs))
	for i, b := range blobs {
		seg, err := tht.DecodeWire(b, entries, numItems)
		if err != nil {
			return nil, fmt.Errorf("core: checkpointed THT segment %d: %w", i, err)
		}
		segments[i] = seg
	}
	return tht.NewGlobal(segments), nil
}
