package itemset

import "slices"

// Set is a collection of distinct itemsets keyed by their compact encoding.
// It is the representation used for the frequent sets F_k and for membership
// tests during subset-infrequency pruning. The zero value is not ready to
// use; call NewSet.
type Set struct {
	m map[string]struct{}
}

// NewSet returns an empty Set.
func NewSet() *Set { return &Set{m: make(map[string]struct{})} }

// SetOf returns a Set holding the given itemsets.
func SetOf(sets ...Itemset) *Set {
	s := NewSet()
	for _, is := range sets {
		s.Add(is)
	}
	return s
}

// Add inserts the itemset. Adding an itemset twice is a no-op.
func (s *Set) Add(is Itemset) { s.m[is.Key()] = struct{}{} }

// Has reports whether the itemset is in the set. The lookup key is built in
// a stack buffer so the check does not allocate (it sits on the candidate-
// generation hot path).
func (s *Set) Has(is Itemset) bool {
	var arr [64]byte
	buf := arr[:0]
	if len(is) > 16 {
		buf = make([]byte, 0, 4*len(is))
	}
	_, ok := s.m[string(appendKey(buf, is))]
	return ok
}

// Remove deletes the itemset from the set if present.
func (s *Set) Remove(is Itemset) { delete(s.m, is.Key()) }

// Len returns the number of itemsets in the set.
func (s *Set) Len() int { return len(s.m) }

// Slice returns the itemsets in lexicographic order.
func (s *Set) Slice() []Itemset {
	out := make([]Itemset, 0, len(s.m))
	for k := range s.m {
		out = append(out, FromKey(k))
	}
	Sort(out)
	return out
}

// Each calls fn for every itemset in the set in unspecified order.
func (s *Set) Each(fn func(Itemset)) {
	for k := range s.m {
		fn(FromKey(k))
	}
}

// Merge adds every itemset of t into s.
func (s *Set) Merge(t *Set) {
	for k := range t.m {
		s.m[k] = struct{}{}
	}
}

// Counted is a (itemset, support) pair, the unit of mining results.
type Counted struct {
	Set   Itemset
	Count int
}

// SortCounted orders pairs by descending count, breaking ties
// lexicographically by itemset, which gives deterministic output.
func SortCounted(cs []Counted) {
	slices.SortFunc(cs, func(a, b Counted) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return Compare(a.Set, b.Set)
	})
}
