package txdb

import (
	"fmt"
	"sort"

	"pmihp/internal/itemset"
)

// Alternative database-to-node assignments. The paper observes that
// PMIHP's advantage grows with the skewness of the word distribution
// across local databases and cites Cheung et al. (TKDE 2002) for
// partitioning approaches that *increase* skewness; these splitters
// implement that direction (ablation A6 compares them):
//
//   - SplitChronological (txdb.go) is the paper's own assignment;
//   - SplitRoundRobin deals days cyclically, destroying skew — the
//     adversarial baseline;
//   - SplitSkewAware clusters vocabulary-similar days onto the same node,
//     increasing skew beyond plain chronology when topics recur on
//     non-adjacent days.

// dayGroup is a run of consecutive transactions sharing a Day.
type dayGroup struct {
	lo, hi int // transaction index range [lo, hi)
}

func (d *DB) dayGroups() []dayGroup {
	var groups []dayGroup
	for lo := 0; lo < d.Len(); {
		hi := lo + 1
		for hi < d.Len() && d.days[hi] == d.days[lo] {
			hi++
		}
		groups = append(groups, dayGroup{lo, hi})
		lo = hi
	}
	return groups
}

// DayViews returns one zero-copy view per day of the database, in day
// order. Day-group contiguity makes each day a single run, so a view
// costs three slice headers.
func (d *DB) DayViews() []*DB {
	groups := d.dayGroups()
	views := make([]*DB, len(groups))
	for i, g := range groups {
		views[i] = d.view(g.lo, g.hi)
	}
	return views
}

// assemble builds per-node databases from day-group assignments, preserving
// chronological order within each node. Each node's CSR arrays are gathered
// with one bulk copy per day group (groups are contiguous transaction
// runs), never per transaction.
func (d *DB) assemble(assign [][]dayGroup) []*DB {
	out := make([]*DB, len(assign))
	for p, groups := range assign {
		sort.Slice(groups, func(i, j int) bool { return groups[i].lo < groups[j].lo })
		docs, total := 0, 0
		for _, g := range groups {
			docs += g.hi - g.lo
			total += int(d.offsets[g.hi] - d.offsets[g.lo])
		}
		nd := &DB{
			items:    make([]itemset.Item, 0, total),
			offsets:  make([]uint32, 1, docs+1),
			tids:     make([]TID, 0, docs),
			days:     make([]int32, 0, docs),
			numItems: d.numItems,
		}
		for _, g := range groups {
			pos := uint32(len(nd.items))
			nd.items = append(nd.items, d.items[d.offsets[g.lo]:d.offsets[g.hi]]...)
			for i := g.lo; i < g.hi; i++ {
				nd.offsets = append(nd.offsets, pos+d.offsets[i+1]-d.offsets[g.lo])
			}
			nd.tids = append(nd.tids, d.tids[g.lo:g.hi]...)
			nd.days = append(nd.days, d.days[g.lo:g.hi]...)
		}
		out[p] = nd
	}
	return out
}

// SplitRoundRobin deals the day groups cyclically across n nodes. Every
// node sees every period of the corpus, so per-node vocabularies converge —
// the minimum-skew assignment.
func (d *DB) SplitRoundRobin(n int) []*DB {
	if n <= 1 {
		return []*DB{d}
	}
	groups := d.dayGroups()
	assign := make([][]dayGroup, n)
	for i, g := range groups {
		assign[i%n] = append(assign[i%n], g)
	}
	// Degenerate day structure (fewer groups than nodes): fall back to a
	// plain count split so no node is empty.
	for _, a := range assign {
		if len(a) == 0 {
			return d.SplitChronological(n)
		}
	}
	return d.assemble(assign)
}

// SplitSkewAware assigns day groups to nodes greedily, placing each day on
// the node whose accumulated vocabulary it overlaps most (subject to a
// document-count balance cap), which clusters topically similar days and
// maximizes cross-node vocabulary disjointness.
func (d *DB) SplitSkewAware(n int) []*DB {
	if n <= 1 {
		return []*DB{d}
	}
	groups := d.dayGroups()
	if len(groups) < n {
		return d.SplitChronological(n)
	}

	// Per-day vocabularies.
	vocab := make([]map[itemset.Item]struct{}, len(groups))
	for i, g := range groups {
		v := make(map[itemset.Item]struct{})
		for t := g.lo; t < g.hi; t++ {
			for _, it := range d.ItemsOf(t) {
				v[it] = struct{}{}
			}
		}
		vocab[i] = v
	}

	// Largest days first, so the balance cap binds late.
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := groups[order[a]], groups[order[b]]
		if ga.hi-ga.lo != gb.hi-gb.lo {
			return ga.hi-ga.lo > gb.hi-gb.lo
		}
		return order[a] < order[b]
	})

	capDocs := (d.Len()*6)/(5*n) + 1 // 20% imbalance allowance
	nodeVocab := make([]map[itemset.Item]struct{}, n)
	nodeDocs := make([]int, n)
	assign := make([][]dayGroup, n)
	for p := range nodeVocab {
		nodeVocab[p] = make(map[itemset.Item]struct{})
	}

	for _, gi := range order {
		g := groups[gi]
		docs := g.hi - g.lo
		best, bestOverlap := -1, -1
		for p := 0; p < n; p++ {
			if nodeDocs[p] > 0 && nodeDocs[p]+docs > capDocs {
				continue
			}
			overlap := 0
			for it := range vocab[gi] {
				if _, ok := nodeVocab[p][it]; ok {
					overlap++
				}
			}
			// Prefer the highest overlap; break ties toward the emptier
			// node so early days seed distinct clusters.
			if overlap > bestOverlap || (overlap == bestOverlap && best >= 0 && nodeDocs[p] < nodeDocs[best]) {
				best, bestOverlap = p, overlap
			}
		}
		if best < 0 {
			// Every node at capacity: place on the least-loaded one.
			for p := 0; p < n; p++ {
				if best < 0 || nodeDocs[p] < nodeDocs[best] {
					best = p
				}
			}
		}
		assign[best] = append(assign[best], g)
		nodeDocs[best] += docs
		for it := range vocab[gi] {
			nodeVocab[best][it] = struct{}{}
		}
	}
	for _, a := range assign {
		if len(a) == 0 {
			return d.SplitChronological(n)
		}
	}
	return d.assemble(assign)
}

// SplitByWork divides the database into n local databases of nearly equal
// estimated counting work, preserving chronological order. The cost model
// is the prefix sum of per-transaction estimates l + l(l-1)/2 where l is
// the token count — one CSR offset subtraction per transaction, O(1) each.
// The linear term is the scan cost every pass charges; the quadratic term
// is the candidate-pair population of pass 2, which dominates text mining
// at low minimum support (every within-document pair is a potential
// candidate) and makes long documents quadratically more expensive than
// their token count suggests. Equalizing this estimate tracks node clocks
// far better than equalizing document counts when document length is
// skewed by day. The cuts snap to day boundaries and keep every part
// non-empty exactly as SplitChronological's do (see splitNear), and parts
// are CSR views into this database's backing, not copies.
func (d *DB) SplitByWork(n int) []*DB {
	offsets := d.offsets
	return d.splitByWeight(n, func(i int) int64 {
		l := int64(offsets[i+1] - offsets[i])
		return l + l*(l-1)/2
	})
}

// splitByWeight is SplitByWork under a caller-supplied non-negative
// per-transaction work estimate: the p-th cut targets the first
// transaction whose weight prefix sum reaches p/n of the total.
func (d *DB) splitByWeight(n int, weight func(i int) int64) []*DB {
	prefix := make([]int64, d.Len()+1)
	for i := 0; i < d.Len(); i++ {
		w := weight(i)
		if w < 0 {
			panic(fmt.Sprintf("txdb: negative weight %d at %d", w, i))
		}
		prefix[i+1] = prefix[i] + w
	}
	total := prefix[d.Len()]
	return d.splitNear(n, func(p int) int {
		want := total * int64(p) / int64(n)
		return sort.Search(d.Len(), func(i int) bool { return prefix[i] >= want })
	})
}

// VocabOverlap measures the mean pairwise Jaccard similarity of the
// vocabularies of the given local databases — the (inverse) skew statistic
// the A6 ablation reports. Lower overlap means higher skew.
func VocabOverlap(parts []*DB) float64 {
	vocabs := make([]map[itemset.Item]struct{}, len(parts))
	for i, p := range parts {
		v := make(map[itemset.Item]struct{})
		p.Each(func(t *Transaction) {
			for _, it := range t.Items {
				v[it] = struct{}{}
			}
		})
		vocabs[i] = v
	}
	sum, pairs := 0.0, 0
	for i := 0; i < len(vocabs); i++ {
		for j := i + 1; j < len(vocabs); j++ {
			inter := 0
			for it := range vocabs[i] {
				if _, ok := vocabs[j][it]; ok {
					inter++
				}
			}
			union := len(vocabs[i]) + len(vocabs[j]) - inter
			if union > 0 {
				sum += float64(inter) / float64(union)
			}
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}
