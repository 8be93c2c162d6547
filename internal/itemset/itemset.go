// Package itemset defines the fundamental types for frequent-itemset mining:
// items (word identifiers), itemsets (lexically ordered sets of items), and
// transactions (documents represented as sorted sets of distinct items).
//
// The paper orders items lexically; we assign item identifiers in lexical
// word order (see internal/text.Vocabulary), so numeric order on Item is the
// lexical order everywhere in this module.
package itemset

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Item identifies a single item (a distinct word in a text database).
// Identifiers are assigned in lexical word order, so the numeric order of
// items coincides with the lexical order the paper relies on.
type Item = uint32

// Itemset is a set of items stored in strictly increasing order.
// A k-itemset has length k. The zero value is the empty itemset.
type Itemset []Item

// New returns an Itemset holding the given items, sorted and deduplicated.
func New(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	slices.Sort(s)
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// K returns the size of the itemset (the k in "k-itemset").
func (s Itemset) K() int { return len(s) }

// Valid reports whether the itemset is strictly increasing (the invariant
// every function in this package preserves).
func (s Itemset) Valid() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Contains reports whether the itemset contains item x.
func (s Itemset) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// SubsetOf reports whether every item of s occurs in t.
// Both itemsets must be sorted (the package invariant).
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j == len(t) || t[j] != x {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets lexicographically (shorter prefixes first).
// It returns -1, 0, or +1.
func Compare(a, b Itemset) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Clone returns an independent copy of the itemset.
func (s Itemset) Clone() Itemset {
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Max returns the largest (lexically last) item. It panics on an empty set.
func (s Itemset) Max() Item {
	if len(s) == 0 {
		panic("itemset: Max of empty itemset")
	}
	return s[len(s)-1]
}

// Intersect returns the sorted intersection of s and t.
func Intersect(s, t Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Join implements the Apriori prefix join (the natural join F_{k-1} ⋈ F_{k-1}
// on the first k-2 items, line 22 of the MIHP pseudo-code). If a and b are
// (k-1)-itemsets sharing their first k-2 items, Join returns the k-itemset
// formed by extending the shared prefix with both final items; ok is false
// when the prefixes differ or the itemsets are identical.
func Join(a, b Itemset) (joined Itemset, ok bool) {
	k := len(a)
	if k == 0 || len(b) != k {
		return nil, false
	}
	for i := 0; i < k-1; i++ {
		if a[i] != b[i] {
			return nil, false
		}
	}
	la, lb := a[k-1], b[k-1]
	if la == lb {
		return nil, false
	}
	if la > lb {
		la, lb = lb, la
	}
	out := make(Itemset, 0, k+1)
	out = append(out, a[:k-1]...)
	return append(out, la, lb), true
}

// EachSubset calls fn once for each (k-1)-subset of the k-itemset s, in the
// order obtained by dropping item 0, item 1, …. It stops early if fn returns
// false. The slice passed to fn is reused between calls; clone it to retain.
func (s Itemset) EachSubset(fn func(sub Itemset) bool) {
	if len(s) == 0 {
		return
	}
	buf := make(Itemset, len(s)-1)
	for i := range s {
		copy(buf, s[:i])
		copy(buf[i:], s[i+1:])
		if !fn(buf) {
			return
		}
	}
}

// ProperSubsets returns every non-empty proper subset of s, used when
// expanding frequent itemsets into association rules. The number of subsets
// is 2^k - 2; callers should keep k modest.
func (s Itemset) ProperSubsets() []Itemset {
	k := len(s)
	if k == 0 {
		return nil
	}
	n := 1 << k
	subs := make([]Itemset, 0, n-2)
	for mask := 1; mask < n-1; mask++ {
		sub := make(Itemset, 0, k-1)
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, s[i])
			}
		}
		subs = append(subs, sub)
	}
	return subs
}

// Key encodes the itemset as a compact string usable as a map key.
// The encoding is 4 bytes big-endian per item, so Key preserves the
// lexicographic order of itemsets of equal size.
func (s Itemset) Key() string {
	return string(appendKey(make([]byte, 0, 4*len(s)), s))
}

// appendKey appends the Key encoding of s to dst.
func appendKey(dst []byte, s Itemset) []byte {
	for _, it := range s {
		dst = binary.BigEndian.AppendUint32(dst, it)
	}
	return dst
}

// FromKey decodes an itemset from its Key encoding.
func FromKey(key string) Itemset {
	if len(key)%4 != 0 {
		panic("itemset: FromKey on malformed key")
	}
	s := make(Itemset, len(key)/4)
	for i := range s {
		s[i] = binary.BigEndian.Uint32([]byte(key[4*i : 4*i+4]))
	}
	return s
}

// String renders the itemset as "{1, 2, 3}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", it)
	}
	b.WriteByte('}')
	return b.String()
}

// Sort orders a slice of itemsets lexicographically in place.
func Sort(sets []Itemset) {
	// slices.SortFunc over sort.Slice: no reflect.Swapper allocation, and
	// this runs once per counting pass.
	slices.SortFunc(sets, Compare)
}
