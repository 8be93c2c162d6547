package core

import "fmt"

// Resume seam for the fault-tolerant cluster runtime. A resumed node
// re-enters the PMIHP protocol from an item-count checkpoint instead of
// repeating that exchange; countsFromWire rebuilds the exact vector the
// exchange produced, so the mining that follows is byte-identical to an
// uninterrupted run (pinned by resume_test.go).

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
