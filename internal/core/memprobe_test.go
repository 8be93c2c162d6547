package core

import (
	"os"
	"runtime"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// seedTx mirrors the pre-CSR Transaction struct (TID uint32 + padding,
// Day int, Items slice header over a per-transaction heap allocation).
type seedTx struct {
	tid   txdb.TID
	day   int
	items itemset.Itemset
}

// seedLayout reconstructs, physically, the structures an E3 node kept
// resident before the CSR overhaul: the slice-of-transactions database
// part with one heap allocation per transaction, the working copy that
// aliased those item lists plus its full-size trim arena, and the
// per-item append-grown [][]TID inverted file. Building it for real (not
// estimating it) makes the comparison include what the old layout actually
// cost — slice headers, append cap overshoot, and allocator size-class
// rounding. It is still conservative: the seed's ToDB allocated each
// transaction's items at the document's raw word count, not the kept
// count used here.
type seedLayout struct {
	txs    []seedTx
	byItem [][]txdb.TID
	arena  []itemset.Item
	wtids  []txdb.TID
	witems []itemset.Itemset
	wact   []bool
}

func buildSeedLayout(part *txdb.DB) *seedLayout {
	s := &seedLayout{
		txs:    make([]seedTx, part.Len()),
		byItem: make([][]txdb.TID, part.NumItems()),
		arena:  make([]itemset.Item, 0, part.TotalItems()),
		wtids:  make([]txdb.TID, part.Len()),
		witems: make([]itemset.Itemset, part.Len()),
		wact:   make([]bool, part.Len()),
	}
	for i := 0; i < part.Len(); i++ {
		row := part.ItemsOf(i)
		items := make(itemset.Itemset, len(row))
		copy(items, row)
		s.txs[i] = seedTx{tid: part.TIDOf(i), day: part.DayOf(i), items: items}
		s.wtids[i] = s.txs[i].tid
		s.witems[i] = items
		s.wact[i] = true
		for _, it := range items {
			s.byItem[it] = append(s.byItem[it], s.txs[i].tid)
		}
	}
	return s
}

// liveHeapDelta measures the live heap bytes retained by build's result.
func liveHeapDelta(build func() *seedLayout) (int64, *seedLayout) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := build()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc), s
}

// TestPaperScaleHeldBytesProbe compares the measured footprint of the
// long-lived per-node structures of an E3 paper-scale run (database view,
// working copy, inverted file — the layers `bytes_held` accounts) against
// the same layers physically rebuilt in the pre-CSR layout. The structures
// are built directly rather than through a full mine: their sizes are
// deterministic functions of the data, and a full paper-scale mine at the
// E3 support takes tens of minutes. Opt-in: set PMIHP_MEMPROBE=1.
func TestPaperScaleHeldBytesProbe(t *testing.T) {
	if os.Getenv("PMIHP_MEMPROBE") == "" {
		t.Skip("set PMIHP_MEMPROBE=1 to run the paper-scale memory probe")
	}
	docs, err := corpus.Generate(corpus.CorpusB(corpus.Paper))
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)

	for _, nodes := range []int{2, 8} {
		var held, preCSR int64
		var heldDB, heldWork, heldPost int64
		for _, part := range db.SplitChronological(nodes) {
			m := mining.NewMetrics("probe")
			work := txdb.NewWork(part)
			inv := buildPostings(part, &m, 0)
			held += part.MemBytes() + work.MemBytes() + inv.MemBytes()
			heldDB += part.MemBytes()
			heldWork += work.MemBytes()
			heldPost += inv.MemBytes()

			delta, s := liveHeapDelta(func() *seedLayout { return buildSeedLayout(part) })
			preCSR += delta
			runtime.KeepAlive(s)
		}
		t.Logf("E3 paper scale, %d node(s): held=%d bytes (%.1f MB) [db=%d work=%d postings=%d], pre-CSR layout=%d bytes (%.1f MB), ratio %.2fx",
			nodes, held, float64(held)/(1<<20), heldDB, heldWork, heldPost,
			preCSR, float64(preCSR)/(1<<20), float64(preCSR)/float64(held))
	}
}
