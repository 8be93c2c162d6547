package core

import (
	"math"
	"math/rand"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// pairDB builds a database of span transactions (TIDs 0..span-1) in which
// items 0 and 1 each occur in an independently drawn random subset of
// exactly round(density*span) documents. Counting the pair {0,1} against it
// exercises one posting-list intersection at that density, which is what
// the kernel benchmarks need; seed fixes the draw.
func pairDB(span int, density0, density1 float64, seed int64) *txdb.DB {
	rng := rand.New(rand.NewSource(seed))
	member := func(density float64) []bool {
		df := int(math.Round(density * float64(span)))
		if df < 1 {
			df = 1
		}
		perm := rng.Perm(span)
		in := make([]bool, span)
		for _, t := range perm[:df] {
			in[t] = true
		}
		return in
	}
	in0, in1 := member(density0), member(density1)
	txs := make([]txdb.Transaction, span)
	for t := 0; t < span; t++ {
		var raw []uint32
		if in0[t] {
			raw = append(raw, 0)
		}
		if in1[t] {
			raw = append(raw, 1)
		}
		txs[t] = txdb.Transaction{TID: txdb.TID(t), Items: itemset.New(raw...)}
	}
	return txdb.New(txs, 2)
}

// benchPairCount measures one posting-list intersection — a support count of
// the pair {0,1} — over a synthetic database where the two items occur at
// the given densities, with the layout forced by the threshold. Together the
// three wrappers below cover each hybrid kernel: block×block skip-gallop,
// bitmap×bitmap word AND, and the mixed bitmap-probe bridge.
func benchPairCount(b *testing.B, threshold, density0, density1 float64) {
	db := pairDB(1<<15, density0, density1, 42)
	m := mining.NewMetrics("bench")
	p := buildPostings(db, &m, 1, threshold)
	x := itemset.New(0, 1)
	want := p.count(x, &m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.count(x, &m); got != want {
			b.Fatalf("count drifted: %d then %d", want, got)
		}
	}
}

func BenchmarkKernelBlockBlock(b *testing.B) {
	benchPairCount(b, math.Inf(1), 1.0/64, 1.0/64)
}

func BenchmarkKernelBitmapBitmap(b *testing.B) {
	benchPairCount(b, denseThresholdAll, 1.0/8, 1.0/8)
}

// BenchmarkKernelBitmapBlock: item 0 sits below the default cutoff and item
// 1 above it, so the default layout decodes the sparse list once and
// probes the dense item's bitmap (intersectBits).
func BenchmarkKernelBitmapBlock(b *testing.B) {
	benchPairCount(b, 0, 1.0/64, 1.0/4)
}

// BenchmarkDenseMine mines the no-stoplist dense corpus end to end on 8
// nodes, where stopword-grade lists make the poll service's bitmap kernels
// carry the intersections.
func BenchmarkDenseMine(b *testing.B) {
	db := smallDB(b, corpus.CorpusDense(corpus.Small))
	opts := mining.Options{MinSupFrac: 0.10, MaxK: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinePMIHP(db, PMIHPConfig{Nodes: 8}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelReference times the uncompressed gallop intersection the
// equivalence tests compare every kernel against, at the block×block
// benchmark's density, so kernel overhead versus plain sorted lists is
// visible in the same run.
func BenchmarkKernelReference(b *testing.B) {
	db := pairDB(1<<15, 1.0/64, 1.0/64, 42)
	m := mining.NewMetrics("bench")
	p := buildPostings(db, &m, 1, math.Inf(1))
	l0 := p.decodeAll(0, nil)
	l1 := p.decodeAll(1, nil)
	dst := make([]txdb.TID, 0, len(l0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = intersectInto(dst[:0], l0, l1)
	}
	_ = dst
}
