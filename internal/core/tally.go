package core

import (
	"sync"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
)

// PairTally records which nodes counted each candidate 2-itemset during a
// parallel run, as a bitmask per pair. It backs the paper's 8-week-corpus
// statistic: "only 21.7% of the candidate 2-itemsets were counted at more
// than one processing node." Supports up to 16 nodes.
type PairTally struct {
	mu sync.Mutex
	m  map[uint64]uint16
}

// NewPairTally returns an empty tally.
func NewPairTally() *PairTally {
	return &PairTally{m: make(map[uint64]uint16)}
}

func (t *PairTally) note(node int, key uint64) {
	t.mu.Lock()
	t.m[key] |= 1 << uint(node)
	t.mu.Unlock()
}

// noteBatch records a batch of same-size itemsets counted at a node; only
// 2-itemsets are tallied.
func (t *PairTally) noteBatch(node, k int, sets []itemset.Itemset) {
	if k != 2 {
		return
	}
	t.mu.Lock()
	for _, s := range sets {
		t.m[mining.PairKey(s[0], s[1])] |= 1 << uint(node)
	}
	t.mu.Unlock()
}

// Distinct returns the number of distinct candidate pairs counted anywhere.
func (t *PairTally) Distinct() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// CountedAtLeast returns how many distinct pairs were counted at n or more
// nodes.
func (t *PairTally) CountedAtLeast(n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := 0
	for _, mask := range t.m {
		if popcount16(mask) >= n {
			c++
		}
	}
	return c
}

func popcount16(x uint16) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
