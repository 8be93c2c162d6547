package itemset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	s := New(5, 3, 5, 1, 3)
	if !s.Equal(Itemset{1, 3, 5}) {
		t.Fatalf("New(5,3,5,1,3) = %v", s)
	}
	if !s.Valid() {
		t.Fatal("New result not valid")
	}
	if New().K() != 0 {
		t.Fatal("empty New should have K 0")
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		in   Itemset
		want bool
	}{
		{Itemset{}, true},
		{Itemset{7}, true},
		{Itemset{1, 2, 3}, true},
		{Itemset{1, 1}, false},
		{Itemset{2, 1}, false},
	}
	for _, c := range cases {
		if got := c.in.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 8)
	for _, x := range []Item{2, 4, 8} {
		if !s.Contains(x) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []Item{0, 3, 9} {
		if s.Contains(x) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want bool
	}{
		{New(), New(1, 2), true},
		{New(1), New(1, 2), true},
		{New(1, 2), New(1, 2), true},
		{New(2, 3), New(1, 2, 3, 4), true},
		{New(1, 5), New(1, 2, 3), false},
		{New(1, 2, 3), New(1, 2), false},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want int
	}{
		{New(1, 2), New(1, 2), 0},
		{New(1, 2), New(1, 3), -1},
		{New(1, 3), New(1, 2), 1},
		{New(1), New(1, 2), -1},
		{New(1, 2), New(1), 1},
		{New(), New(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestJoin(t *testing.T) {
	j, ok := Join(New(1, 2), New(1, 3))
	if !ok || !j.Equal(New(1, 2, 3)) {
		t.Fatalf("Join = %v, %v", j, ok)
	}
	// Order of arguments must not matter.
	j2, ok := Join(New(1, 3), New(1, 2))
	if !ok || !j2.Equal(j) {
		t.Fatalf("Join reversed = %v, %v", j2, ok)
	}
	if _, ok := Join(New(1, 2), New(2, 3)); ok {
		t.Fatal("Join with differing prefixes should fail")
	}
	if _, ok := Join(New(1, 2), New(1, 2)); ok {
		t.Fatal("Join of identical itemsets should fail")
	}
	if _, ok := Join(New(1), New(1, 2)); ok {
		t.Fatal("Join of different sizes should fail")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		s := New(raw...)
		return FromKey(s.Key()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyPreservesOrderSameSize(t *testing.T) {
	f := func(a, b [3]uint32) bool {
		x, y := New(a[0], a[1], a[2]), New(b[0], b[1], b[2])
		if len(x) != 3 || len(y) != 3 {
			return true // duplicates collapsed; ordering claim is per-size
		}
		c := Compare(x, y)
		switch {
		case c < 0:
			return x.Key() < y.Key()
		case c > 0:
			return x.Key() > y.Key()
		default:
			return x.Key() == y.Key()
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Union returns the sorted union of s and t.
func Union(s, t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

func TestUnionIntersectProperties(t *testing.T) {
	f := func(a, b []uint32) bool {
		x, y := New(a...), New(b...)
		u, n := Union(x, y), Intersect(x, y)
		if !u.Valid() || !n.Valid() {
			return false
		}
		// Every member of both is in the union; intersection is in both.
		for _, it := range x {
			if !u.Contains(it) {
				return false
			}
		}
		for _, it := range y {
			if !u.Contains(it) {
				return false
			}
		}
		for _, it := range n {
			if !x.Contains(it) || !y.Contains(it) {
				return false
			}
		}
		return len(u)+len(n) == len(x)+len(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEachSubset(t *testing.T) {
	s := New(1, 2, 3)
	var subs []Itemset
	s.EachSubset(func(sub Itemset) bool {
		subs = append(subs, sub.Clone())
		return true
	})
	if len(subs) != 3 {
		t.Fatalf("got %d subsets", len(subs))
	}
	want := []Itemset{New(2, 3), New(1, 3), New(1, 2)}
	for i := range want {
		if !subs[i].Equal(want[i]) {
			t.Errorf("subset %d = %v, want %v", i, subs[i], want[i])
		}
	}
	// Early stop.
	n := 0
	s.EachSubset(func(Itemset) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestProperSubsets(t *testing.T) {
	s := New(1, 2, 3)
	subs := s.ProperSubsets()
	if len(subs) != 6 { // 2^3 - 2
		t.Fatalf("got %d proper subsets", len(subs))
	}
	for _, sub := range subs {
		if len(sub) == 0 || len(sub) == len(s) {
			t.Errorf("improper subset %v", sub)
		}
		if !sub.SubsetOf(s) || !sub.Valid() {
			t.Errorf("bad subset %v", sub)
		}
	}
}

// Min returns the smallest (lexically first) item. It panics on an empty set.
func (s Itemset) Min() Item {
	if len(s) == 0 {
		panic("itemset: Min of empty itemset")
	}
	return s[0]
}

// Without returns a new itemset equal to s with the item at index i removed.
func (s Itemset) Without(i int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Extend returns a new itemset equal to s with x appended. x must be greater
// than every item of s; Extend panics otherwise, because the result would
// violate the ordering invariant.
func (s Itemset) Extend(x Item) Itemset {
	if len(s) > 0 && x <= s[len(s)-1] {
		panic(fmt.Sprintf("itemset: Extend(%d) would break ordering of %v", x, s))
	}
	out := make(Itemset, 0, len(s)+1)
	out = append(out, s...)
	return append(out, x)
}

func TestWithoutExtend(t *testing.T) {
	s := New(1, 2, 3)
	if got := s.Without(1); !got.Equal(New(1, 3)) {
		t.Fatalf("Without(1) = %v", got)
	}
	if got := s.Extend(9); !got.Equal(New(1, 2, 3, 9)) {
		t.Fatalf("Extend(9) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Extend with non-increasing item should panic")
		}
	}()
	s.Extend(2)
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	s := New(4, 7)
	if s.Min() != 4 || s.Max() != 7 {
		t.Fatalf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty should panic")
		}
	}()
	Itemset{}.Min()
}

func TestSortItemsets(t *testing.T) {
	sets := []Itemset{New(2, 3), New(1, 9), New(1, 2, 3), New(1, 2)}
	Sort(sets)
	want := []Itemset{New(1, 2), New(1, 2, 3), New(1, 9), New(2, 3)}
	for i := range want {
		if !sets[i].Equal(want[i]) {
			t.Fatalf("Sort order[%d] = %v, want %v", i, sets[i], want[i])
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	a, b := New(1, 2), New(2, 3)
	s.Add(a)
	if !s.Has(a) || s.Has(b) {
		t.Fatal("Set membership wrong")
	}
	s.Add(a)
	if s.Len() != 1 {
		t.Fatal("double Add changed Len")
	}
	s.Add(b)
	sl := s.Slice()
	if len(sl) != 2 || !sl[0].Equal(a) || !sl[1].Equal(b) {
		t.Fatalf("Slice = %v", sl)
	}
	s.Remove(a)
	if s.Has(a) || s.Len() != 1 {
		t.Fatal("Remove failed")
	}
	other := SetOf(New(7, 8))
	s.Merge(other)
	if !s.Has(New(7, 8)) {
		t.Fatal("Merge failed")
	}
}

func TestSetHasMatchesKeyLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSet()
	var members []Itemset
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(20) // cross the 16-item stack-buffer boundary
		raw := make([]uint32, n)
		for j := range raw {
			raw[j] = rng.Uint32()
		}
		is := New(raw...)
		s.Add(is)
		members = append(members, is)
	}
	for _, m := range members {
		if !s.Has(m) {
			t.Fatalf("member %v not found", m)
		}
		if _, ok := s.m[m.Key()]; !ok {
			t.Fatalf("Key lookup of %v failed", m)
		}
	}
}

func TestSortCountedDeterministic(t *testing.T) {
	cs := []Counted{
		{Set: New(2, 3), Count: 5},
		{Set: New(1, 2), Count: 5},
		{Set: New(9), Count: 7},
	}
	SortCounted(cs)
	if cs[0].Count != 7 {
		t.Fatal("descending count order violated")
	}
	if !cs[1].Set.Equal(New(1, 2)) {
		t.Fatal("lexicographic tiebreak violated")
	}
}
