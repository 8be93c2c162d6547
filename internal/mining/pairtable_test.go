package mining

import (
	"math/rand"
	"testing"
)

// TestPairTableMatchesMap: the open-addressing table must behave exactly
// like the Go map it replaced, across growth, overwrites, and misses.
func TestPairTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := make(map[uint64]int32)
	pt := NewPairTable(0)
	for i := 0; i < 20000; i++ {
		a := uint32(rng.Intn(500))
		b := a + 1 + uint32(rng.Intn(500))
		key := PairKey(a, b)
		val := int32(rng.Intn(1000))
		ref[key] = val
		pt.Put(key, val)
		if pt.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, pt.Len(), len(ref))
		}
	}
	for key, want := range ref {
		got, ok := pt.Get(key)
		if !ok || got != want {
			t.Fatalf("Get(%#x) = %d,%v, want %d,true", key, got, ok, want)
		}
	}
	for i := 0; i < 5000; i++ {
		a := uint32(rng.Intn(600))
		b := a + 1 + uint32(rng.Intn(600))
		key := PairKey(a, b)
		want, wantOK := ref[key]
		got, ok := pt.Get(key)
		if ok != wantOK || got != want {
			t.Fatalf("probe %#x: got %d,%v want %d,%v", key, got, ok, want, wantOK)
		}
	}
	pt.Reset()
	if pt.Len() != 0 {
		t.Fatalf("Len after Reset = %d", pt.Len())
	}
	if _, ok := pt.Get(1); ok {
		t.Fatal("Get after Reset found a key")
	}
}

func TestPairTableZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(0, …) did not panic")
		}
	}()
	NewPairTable(0).Put(0, 1)
}

func TestItemArenaSlicesAreIndependent(t *testing.T) {
	var a Arena
	s1 := a.Alloc(3)
	s1[0], s1[1], s1[2] = 1, 2, 3
	s2 := a.Alloc(3)
	s2[0], s2[1], s2[2] = 4, 5, 6
	// Appending to an arena slice must not clobber its neighbor.
	_ = append(s1, 99)
	if s2[0] != 4 || s2[1] != 5 || s2[2] != 6 {
		t.Fatalf("arena slice clobbered: %v", s2)
	}
	// Force a chunk rollover and check earlier slices stay intact.
	for i := 0; i < arenaChunk; i++ {
		a.Alloc(3)
	}
	if s1[0] != 1 || s1[1] != 2 || s1[2] != 3 {
		t.Fatalf("arena slice moved: %v", s1)
	}
}

func BenchmarkPairTableGet(b *testing.B) {
	b.ReportAllocs()
	pt := NewPairTable(100000)
	for i := uint64(0); i < 100000; i++ {
		pt.Put(i<<32|(i+1), int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%200000) << 32
		pt.Get(k | (k>>32 + 1))
	}
}
