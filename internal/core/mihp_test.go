package core

import (
	"math/rand"
	"runtime"
	"testing"

	"pmihp/internal/apriori"
	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// smallDB generates the Small-scale preset corpus used across core tests.
func smallDB(t testing.TB, cfg corpus.Config) *txdb.DB {
	t.Helper()
	docs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

func TestMIHPMatchesBruteForce(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	cfg.Docs, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 60, 400, 40, 20
	db := smallDB(t, cfg)
	opts := mining.Options{MinSupFrac: 0.05, PartitionSize: 7, THTEntries: 16}

	want := mining.BruteForce(db, opts)
	got, err := MineMIHP(db, opts)
	if err != nil {
		t.Fatalf("MineMIHP: %v", err)
	}
	if ok, diff := mining.SameFrequentSets(want, got); !ok {
		t.Fatalf("MIHP differs from brute force: %s", diff)
	}
	if got.Metrics.Candidates() == 0 {
		t.Fatal("MIHP reported zero candidates")
	}
}

func TestMIHPMatchesApriori(t *testing.T) {
	for _, minsup := range []float64{0.10, 0.06, 0.04} {
		cfg := corpus.CorpusB(corpus.Small)
		db := smallDB(t, cfg)
		opts := mining.Options{MinSupFrac: minsup, MaxK: 4}

		ap, err := apriori.Mine(db, opts)
		if err != nil {
			t.Fatalf("apriori: %v", err)
		}
		mi, err := MineMIHP(db, opts)
		if err != nil {
			t.Fatalf("mihp: %v", err)
		}
		if ok, diff := mining.SameFrequentSets(ap, mi); !ok {
			t.Fatalf("minsup=%g: MIHP differs from Apriori: %s", minsup, diff)
		}
	}
}

func TestMIHPTrimmingOffSameAnswer(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	on, err := MineMIHP(db, mining.Options{MinSupFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	off, err := MineMIHP(db, mining.Options{MinSupFrac: 0.05, DisableTrimming: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(on, off); !ok {
		t.Fatalf("trimming changed the answer: %s", diff)
	}
}

// TestMIHPPass1AllocatesKeptRowsOnly: pass 1 allocates THT rows for the
// frequent items alone. On a long-tail database — 300 frequent items and
// 4,000 that occur once — a MaxK 1 mine may allocate the kept rows'
// counters and masks plus 128 bytes per vocabulary item, for the count
// vector, the row index and the result; a row for every item that occurs
// costs 1,600 bytes per singleton.
func TestMIHPPass1AllocatesKeptRowsOnly(t *testing.T) {
	const frequent, singletons, docs = 300, 4000, 400
	rng := rand.New(rand.NewSource(1))
	txs := make([]txdb.Transaction, docs)
	for i := range txs {
		raw := make([]uint32, 0, 30)
		for j := 0; j < 20; j++ {
			raw = append(raw, uint32(rng.Intn(frequent)))
		}
		for j := 0; j < singletons/docs; j++ {
			raw = append(raw, uint32(frequent+i*singletons/docs+j))
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(raw...)}
	}
	numItems := frequent + singletons
	db := txdb.New(txs, numItems)
	opts := mining.Options{MinSupCount: 5, MaxK: 1}.WithDefaults()

	var kept int
	allocated := uint64(1<<63 - 1)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := MineMIHP(db, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		kept = len(res.Frequent)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	if kept < frequent*9/10 || kept > frequent {
		t.Fatalf("%d frequent items, want nearly %d", kept, frequent)
	}
	entries := opts.THTEntries
	rowBytes := 4*entries + 8*((entries+63)/64)
	bound := uint64(kept*rowBytes + 128*numItems)
	t.Logf("MaxK 1 mine allocated %d bytes; bound %d", allocated, bound)
	if allocated > bound {
		t.Fatalf("MaxK 1 mine allocated %d bytes, over the %d of %d kept rows and %d items", allocated, bound, kept, numItems)
	}
}
