// Package hashtree implements the Apriori hash tree used to count the
// occurrences of candidate k-itemsets during a database scan (Agrawal &
// Srikant 1994, cited as the counting structure in the MIHP pseudo-code:
// "they can be stored in a hash tree where the hash value of each item
// occupies a level in the tree").
//
// Interior nodes hash one item per level; leaves hold small buckets of
// candidates. Counting a transaction visits only the subtrees reachable
// through the transaction's own items, so the cost per transaction is far
// below the naive |C_k| subset tests.
//
// After Build the tree is immutable, so concurrent scans are possible: the
// per-transaction bookkeeping (the visited-leaf guard and the structural
// walk cost) lives in a VisitState owned by each scanning goroutine rather
// than in the tree, and counters accumulate in caller-owned slices.
package hashtree

import (
	"pmihp/internal/itemset"
)

// Fanout is the branching factor of interior nodes.
const Fanout = 8

// LeafCap is the number of candidates a leaf holds before it is split into
// an interior node (leaves at depth k can never split and grow unbounded).
const LeafCap = 16

type node struct {
	// children is non-nil for interior nodes.
	children []*node
	// cands holds candidate indexes for leaf nodes.
	cands []int32
	// leafID indexes the leaf in VisitState.lastVisit (dense over live
	// leaves; ids of leaves retired by splits are simply never visited).
	leafID int32
}

// Tree is a hash tree over a fixed list of candidate k-itemsets. The
// candidates are stored as one flat stride-k item matrix (candidate i is
// flat[i*k : (i+1)*k]), so leaf verification walks contiguous memory
// instead of chasing per-candidate slice headers.
type Tree struct {
	k        int
	n        int            // number of candidates
	flat     []itemset.Item // stride-k candidate matrix, len n*k
	counts   []int
	root     *node
	numLeafs int32

	// state backs the serial VisitTx/CountTx entry points; concurrent scans
	// use private VisitStates instead.
	state VisitState

	// Build-time slabs: nodes, leaf candidate buckets, and child-pointer
	// arrays are carved from chunked arenas instead of being allocated
	// individually — a tree is built per counting pass, and per-node
	// allocations dominated its construction cost. Chunks are never grown
	// in place, so handed-out pointers and slices stay valid.
	nodeSlab  []node
	candSlab  []int32
	childSlab []*node

	// walkCost accumulates the structural work of serial counting scans: one
	// unit per interior node hop and per leaf candidate examined. It is the
	// quantity the cost model charges for tree-based counting — the cost
	// that blows up when a huge candidate set piles into the leaves, which
	// is the regime where the paper's Apriori drowns. Sharded scans
	// accumulate into their VisitState and fold back via AddWalkCost.
	walkCost int64
}

// VisitState is the per-goroutine scan state of a tree: a transaction serial
// per leaf guards against reporting a candidate twice when several item
// paths reach its leaf, and walkCost tallies the structural work of this
// state's scans. A zero VisitState is ready after Bind.
type VisitState struct {
	lastVisit []int64
	visit     int64
	walkCost  int64
}

// Bind prepares the state for scans over t, reusing its buffer when large
// enough. Any prior contents are discarded.
func (st *VisitState) Bind(t *Tree) {
	n := int(t.numLeafs)
	if cap(st.lastVisit) < n {
		st.lastVisit = make([]int64, n)
	} else {
		st.lastVisit = st.lastVisit[:n]
		clear(st.lastVisit)
	}
	st.visit = 0
	st.walkCost = 0
}

// WalkCost returns the structural work accumulated by this state's scans.
func (st *VisitState) WalkCost() int64 { return st.walkCost }

// Build constructs a hash tree over the candidates, which must all be
// k-itemsets of the same size k >= 1. The candidates are packed into the
// tree's flat matrix in one bulk copy; the argument is not referenced
// afterwards.
func Build(k int, cands []itemset.Itemset) *Tree {
	t := &Tree{
		k:      k,
		n:      len(cands),
		flat:   make([]itemset.Item, 0, k*len(cands)),
		counts: make([]int, len(cands)),
	}
	for _, c := range cands {
		if len(c) != k {
			panic("hashtree: candidate size mismatch")
		}
		t.flat = append(t.flat, c...)
	}
	t.root = t.newLeaf()
	for i := 0; i < t.n; i++ {
		t.insert(t.root, int32(i), 0)
	}
	t.state.Bind(t)
	return t
}

// cand returns candidate i as a view into the flat matrix.
func (t *Tree) cand(i int32) itemset.Itemset {
	lo := int(i) * t.k
	return itemset.Itemset(t.flat[lo : lo+t.k : lo+t.k])
}

// Slab chunk sizes (in nodes / leaves / interior splits per chunk).
const slabChunk = 64

func (t *Tree) allocNode() *node {
	if len(t.nodeSlab) == cap(t.nodeSlab) {
		size := slabChunk
		if want := t.n/LeafCap + 1; cap(t.nodeSlab) == 0 && want > size {
			size = want
		}
		t.nodeSlab = make([]node, 0, size)
	}
	t.nodeSlab = t.nodeSlab[:len(t.nodeSlab)+1]
	return &t.nodeSlab[len(t.nodeSlab)-1]
}

// allocCands carves a leaf bucket with room for the LeafCap+1 entries a
// leaf can hold before it splits. Depth-k leaves that grow beyond that
// spill to an ordinary heap reallocation, which is rare.
func (t *Tree) allocCands() []int32 {
	const bucket = LeafCap + 1
	if cap(t.candSlab)-len(t.candSlab) < bucket {
		t.candSlab = make([]int32, 0, slabChunk*bucket)
	}
	n := len(t.candSlab)
	t.candSlab = t.candSlab[:n+bucket]
	return t.candSlab[n : n : n+bucket]
}

func (t *Tree) allocChildren() []*node {
	if cap(t.childSlab)-len(t.childSlab) < Fanout {
		t.childSlab = make([]*node, 0, slabChunk*Fanout)
	}
	n := len(t.childSlab)
	t.childSlab = t.childSlab[:n+Fanout]
	return t.childSlab[n : n+Fanout : n+Fanout]
}

func (t *Tree) newLeaf() *node {
	n := t.allocNode()
	n.leafID = t.numLeafs
	n.cands = t.allocCands()
	t.numLeafs++
	return n
}

// Len returns the number of candidates in the tree.
func (t *Tree) Len() int { return t.n }

// K returns the candidate size the tree was built for.
func (t *Tree) K() int { return t.k }

func hash(it itemset.Item) int { return int(it) % Fanout }

func (t *Tree) insert(n *node, cand int32, depth int) {
	if n.children != nil {
		child := n.children[hash(t.flat[int(cand)*t.k+depth])]
		t.insert(child, cand, depth+1)
		return
	}
	n.cands = append(n.cands, cand)
	if len(n.cands) > LeafCap && depth < t.k {
		// Split: redistribute candidates one level deeper.
		old := n.cands
		n.cands = nil
		n.children = t.allocChildren()
		for i := range n.children {
			n.children[i] = t.newLeaf()
		}
		for _, c := range old {
			t.insert(n.children[hash(t.flat[int(c)*t.k+depth])], c, depth+1)
		}
	}
}

// CountTx adds 1 to the count of every candidate contained in items, which
// must be a sorted transaction. It returns the number of candidates matched.
func (t *Tree) CountTx(items itemset.Itemset) int {
	matched := 0
	t.VisitTx(items, func(cand int) {
		t.counts[cand]++
		matched++
	})
	return matched
}

// VisitTx calls fn with the index of every candidate contained in the sorted
// transaction items. Each contained candidate is reported exactly once. It
// uses the tree's own scan state and must not run concurrently with other
// scans; concurrent callers use VisitTxState.
func (t *Tree) VisitTx(items itemset.Itemset, fn func(cand int)) {
	before := t.state.walkCost
	t.VisitTxState(items, &t.state, fn)
	t.walkCost += t.state.walkCost - before
}

// VisitTxState is VisitTx with caller-owned scan state, safe to run
// concurrently with other VisitTxState calls on different states. The
// state must have been Bound to t. Structural work accrues on st, not on
// the tree; sharded scans fold it back with AddWalkCost.
func (t *Tree) VisitTxState(items itemset.Itemset, st *VisitState, fn func(cand int)) {
	if len(items) < t.k {
		return
	}
	st.visit++
	t.walk(t.root, items, items, 0, st, fn)
}

// walk descends the tree. depth is how many items of the candidate prefix
// have been consumed; items holds the transaction items still usable for
// deeper hashing, full the whole transaction. Leaves verify the *entire*
// candidate against the full transaction: different candidates sharing a
// hash path need not share actual prefix items, so a suffix-only check
// would miscount under collisions. The lastVisit guard keeps the exactly-
// once property when several paths reach the same leaf.
func (t *Tree) walk(n *node, items, full itemset.Itemset, depth int, st *VisitState, fn func(cand int)) {
	if n.children == nil {
		if st.lastVisit[n.leafID] == st.visit {
			return
		}
		st.lastVisit[n.leafID] = st.visit
		st.walkCost += int64(len(n.cands))
		for _, c := range n.cands {
			if t.cand(c).SubsetOf(full) {
				fn(int(c))
			}
		}
		return
	}
	// Need at least k-depth items remaining to complete a candidate.
	need := t.k - depth
	for i := 0; i+need <= len(items); i++ {
		st.walkCost++
		child := n.children[hash(items[i])]
		t.walk(child, items[i+1:], full, depth+1, st, fn)
	}
}

// WalkCost returns the accumulated structural counting work (interior hops
// plus leaf entries examined) across all CountTx/VisitTx calls plus
// whatever sharded scans folded back via AddWalkCost.
func (t *Tree) WalkCost() int64 { return t.walkCost }

// AddWalkCost folds the structural work of a sharded scan (the VisitStates'
// WalkCost sums) into the tree's total, keeping WalkCost equal to what a
// serial scan would have accumulated.
func (t *Tree) AddWalkCost(n int64) { t.walkCost += n }

// Count returns the accumulated count for candidate index i.
func (t *Tree) Count(i int) int { return t.counts[i] }

// Counts returns the full count slice, indexed like the candidate list
// passed to Build. The slice is owned by the tree.
func (t *Tree) Counts() []int { return t.counts }

// AddCounts adds per-candidate deltas (a sharded scan's private counters)
// into the tree's counts.
func (t *Tree) AddCounts(delta []int32) {
	if len(delta) != len(t.counts) {
		panic("hashtree: AddCounts length mismatch")
	}
	for i, d := range delta {
		t.counts[i] += int(d)
	}
}

// Candidate returns candidate i.
func (t *Tree) Candidate(i int) itemset.Itemset { return t.cand(int32(i)) }

// Frequent returns, in lexicographic order, the (candidate, count) pairs
// whose count reaches minCount.
func (t *Tree) Frequent(minCount int) []itemset.Counted {
	var out []itemset.Counted
	for i, c := range t.counts {
		if c >= minCount {
			out = append(out, itemset.Counted{Set: t.cand(int32(i)), Count: c})
		}
	}
	// Candidates were inserted in caller order; normalize.
	itemset.SortCounted(out)
	return out
}
