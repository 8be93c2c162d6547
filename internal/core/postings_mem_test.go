package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// memProbeDB builds a database big enough that the inverted file's arrays
// (not slice headers or allocator rounding) dominate its heap footprint:
// 30k documents of 24 distinct items over a 4k vocabulary, with a Zipf-ish
// head so the hybrid layout gets both bitmaps and blocks.
func memProbeDB() *txdb.DB {
	const (
		docs     = 30_000
		numItems = 4_096
		perDoc   = 24
	)
	rng := rand.New(rand.NewSource(11))
	txs := make([]txdb.Transaction, docs)
	raw := make([]uint32, perDoc)
	for i := range txs {
		for j := range raw {
			if j < 4 {
				raw[j] = uint32(rng.Intn(64)) // head: dense under the default cut
			} else {
				raw[j] = uint32(rng.Intn(numItems))
			}
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(raw...)}
	}
	return txdb.New(txs, numItems)
}

// measureBuild returns the live heap bytes retained by a postings build.
func measureBuild(db *txdb.DB, threshold float64) (int64, *postings) {
	var m0, m1 runtime.MemStats
	m := mining.NewMetrics("mem")
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := buildPostings(db, &m, threshold)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc), p
}

// TestPostingsMemBytesMatchesHeap pins MemBytes to reality: the accounted
// size of a freshly built inverted file must track the measured live-heap
// delta of building it, under every layout. This is what catches
// hardcoded element widths (the accounting once assumed 4-byte TIDs and
// would silently undercount if txdb.TID widened) and fields added to the
// struct but never added to MemBytes — a bitmap matrix that dominates the
// footprint while going unaccounted shows up as a large deficit here.
func TestPostingsMemBytesMatchesHeap(t *testing.T) {
	db := memProbeDB()
	// One throwaway build before the first measurement so intermediates
	// from constructing the database can't contaminate the heap delta.
	{
		m := mining.NewMetrics("warmup")
		buildPostings(db, &m, 0)
	}
	for _, tc := range []struct {
		name      string
		threshold float64
	}{
		{"compressed", math.Inf(1)},
		{"hybrid", 0},
		{"bitmap", denseThresholdAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap, p := measureBuild(db, tc.threshold)
			accounted := p.MemBytes()
			runtime.KeepAlive(p)
			if accounted <= 0 {
				t.Fatalf("MemBytes = %d", accounted)
			}
			// The heap delta adds slice headers, allocator size-class
			// rounding, and the struct itself; the accounting adds the
			// always-reserved block scratch. Both are small against the
			// arrays, so the two must agree within 25%.
			ratio := float64(heap) / float64(accounted)
			if ratio < 0.75 || ratio > 1.25 {
				t.Fatalf("MemBytes = %d but the build retained %d heap bytes (ratio %.2f)",
					accounted, heap, ratio)
			}
		})
	}
}

// TestPostingsMemBytesOrdering: at equal data, the accounting must reflect
// the layouts' real footprints — and the per-shard scratch must stay out,
// so held bytes cannot depend on the worker count.
func TestPostingsMemBytesOrdering(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	m := mining.NewMetrics("mem")
	p := buildPostings(db, &m, 0)
	hybrid := p.MemBytes()
	p.ensureScratch(8)
	if sharded := p.MemBytes(); sharded != hybrid {
		t.Fatalf("MemBytes depends on workers: serial %d, 8-way %d", hybrid, sharded)
	}
	all := buildPostings(db, &m, denseThresholdAll)
	if allBytes := all.MemBytes(); allBytes <= hybrid {
		t.Fatalf("all-bitmap layout accounted %d bytes <= hybrid's %d; bitmap storage is not being counted", allBytes, hybrid)
	}
}
