// Package fpgrowth implements the FP-Growth algorithm (Han, Pei & Yin,
// SIGMOD 2000), the pattern-growth baseline of Figure 4. FP-Growth avoids
// candidate generation by compressing the database into an FP-tree and
// recursively mining conditional trees; the paper observes it is competitive
// at high minimum support but that "the FP-tree becomes too large when the
// minimum support level is low" on text data, where long transactions over
// a huge vocabulary defeat the prefix compression. The node accounting here
// (Metrics.FPTreeNodes and the per-node work charges) reproduces exactly
// that blow-up.
package fpgrowth

import (
	"sort"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

type fpNode struct {
	item     itemset.Item
	count    int
	parent   *fpNode
	children map[itemset.Item]*fpNode
	next     *fpNode // header-table chain
}

// fpTree is an FP-tree with its header table.
type fpTree struct {
	root    *fpNode
	heads   map[itemset.Item]*fpNode
	tails   map[itemset.Item]*fpNode
	order   map[itemset.Item]int // global frequency-descending rank
	metrics *mining.Metrics
}

func newTree(order map[itemset.Item]int, m *mining.Metrics) *fpTree {
	return &fpTree{
		root:    &fpNode{children: make(map[itemset.Item]*fpNode)},
		heads:   make(map[itemset.Item]*fpNode),
		tails:   make(map[itemset.Item]*fpNode),
		order:   order,
		metrics: m,
	}
}

// insert adds a path of items (already in tree order) with the given count.
func (t *fpTree) insert(items []itemset.Item, count int) {
	n := t.root
	for _, it := range items {
		child := n.children[it]
		if child == nil {
			child = &fpNode{item: it, count: 0, parent: n, children: make(map[itemset.Item]*fpNode)}
			n.children[it] = child
			t.metrics.FPTreeNodes++
			if t.tails[it] == nil {
				t.heads[it] = child
			} else {
				t.tails[it].next = child
			}
			t.tails[it] = child
		}
		child.count += count
		t.metrics.Work.Charge(1, mining.CostFPNode)
		n = child
	}
}

// Mine runs FP-Growth and returns every frequent itemset with its exact
// support count.
func Mine(db *txdb.DB, opts mining.Options) (*mining.Result, error) {
	opts = opts.WithDefaults()
	minCount := opts.MinCount(db.Len())
	res := &mining.Result{Metrics: mining.NewMetrics("fpgrowth")}
	m := &res.Metrics

	// Pass 1: item counts.
	counts := db.ItemCounts()
	m.Passes++
	m.Work.Charge(int64(db.TotalItems()), mining.CostScanItem)
	_, f1 := mining.FrequentItems(counts, minCount)
	if opts.MaxK == 1 || len(f1) < 2 {
		// No growth pass: report the frequent items directly (mineTree
		// would otherwise emit them from the root header table).
		res.Frequent = mining.CountedItems(f1, counts)
		itemset.SortCounted(res.Frequent)
		return res, nil
	}
	// Tree order: frequency descending, item id ascending for ties (f1
	// ascends, and the sort is stable).
	sort.SliceStable(f1, func(i, j int) bool { return counts[f1[i]] > counts[f1[j]] })
	order := make(map[itemset.Item]int, len(f1))
	for rank, it := range f1 {
		order[it] = rank
	}

	// Pass 2: build the FP-tree.
	tree := newTree(order, m)
	m.Passes++
	buf := make([]itemset.Item, 0, 256)
	db.Each(func(t *txdb.Transaction) {
		m.Work.Charge(int64(len(t.Items)), mining.CostScanItem)
		buf = buf[:0]
		for _, it := range t.Items {
			if _, ok := order[it]; ok {
				buf = append(buf, it)
			}
		}
		sort.Slice(buf, func(i, j int) bool { return order[buf[i]] < order[buf[j]] })
		tree.insert(buf, 1)
	})

	// Recursive growth.
	var prefix []itemset.Item
	mineTree(tree, prefix, minCount, opts.MaxK, res)

	m.NoteCandidateBytes(m.FPTreeNodes * 48) // ~node footprint
	m.NoteHeldBytes(db.MemBytes() + m.PeakCandidateBytes)
	itemset.SortCounted(res.Frequent)
	return res, nil
}

// mineTree grows patterns from the conditional tree. prefix holds the items
// already fixed (in arbitrary order); every emitted itemset is prefix plus
// one header item, sorted.
func mineTree(t *fpTree, prefix []itemset.Item, minCount, maxK int, res *mining.Result) {
	m := t.metrics
	// Header items in reverse tree order (least frequent first), the classic
	// bottom-up growth.
	items := make([]itemset.Item, 0, len(t.heads))
	for it := range t.heads {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return t.order[items[i]] > t.order[items[j]] })

	for _, it := range items {
		support := 0
		for n := t.heads[it]; n != nil; n = n.next {
			support += n.count
			m.Work.Charge(1, mining.CostFPNode)
		}
		if support < minCount {
			continue
		}
		pattern := append(append([]itemset.Item{}, prefix...), it)
		set := itemset.New(pattern...)
		res.Frequent = append(res.Frequent, itemset.Counted{Set: set, Count: support})
		if maxK > 0 && len(pattern) >= maxK {
			continue
		}

		// Conditional pattern base: first find the conditionally frequent
		// items (paths are pruned to them, the standard FP-Growth
		// optimization), then build the conditional tree.
		condCount := make(map[itemset.Item]int)
		for n := t.heads[it]; n != nil; n = n.next {
			for p := n.parent; p != nil && p.parent != nil; p = p.parent {
				condCount[p.item] += n.count
				m.Work.Charge(1, mining.CostFPNode)
			}
		}
		cond := newTree(t.order, m)
		any := false
		for n := t.heads[it]; n != nil; n = n.next {
			var path []itemset.Item
			for p := n.parent; p != nil && p.parent != nil; p = p.parent {
				if condCount[p.item] >= minCount {
					path = append(path, p.item)
				}
			}
			if len(path) == 0 {
				continue
			}
			// path was collected leaf-to-root; restore tree order.
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			cond.insert(path, n.count)
			any = true
		}
		if any {
			mineTree(cond, pattern, minCount, maxK, res)
		}
	}
}
