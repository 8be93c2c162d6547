package core

import (
	"math"
	"sort"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// pairGenMiners returns the pass-2 miners of a run over db on nodes nodes
// with THT segments of entries slots, prepared as RunNode prepares them
// after the THT exchange (as MineMIHP does on one node): each holds the
// cascade of every node's kept rows, its local threshold and the gate's
// choice of generation path.
func pairGenMiners(db *txdb.DB, nodes, entries, minCount int) []*localMiner {
	parts := db.SplitChronological(nodes)
	counts := make([][]int, nodes)
	global := make([]int, db.NumItems())
	for p, part := range parts {
		counts[p] = part.ItemCounts()
		for it, c := range counts[p] {
			global[it] += c
		}
	}
	freq, f1 := mining.FrequentItems(global, minCount)
	locals := make([]*tht.Local, nodes)
	for p, part := range parts {
		locals[p] = tht.Build(part, entries, counts[p], freq)
	}
	g := tht.NewGlobal(locals)
	miners := make([]*localMiner, nodes)
	for p, part := range parts {
		lm := &localMiner{
			global:    g,
			self:      p,
			minLocal:  LocalMinCount(minCount, part.Len(), db.Len()),
			minPrune:  minCount,
			freqItems: f1,
		}
		lm.preparePairs(db.NumItems())
		miners[p] = lm
	}
	return miners
}

// corpusDB generates a corpus and converts it in publication-day order.
func corpusDB(b *testing.B, cfg corpus.Config) *txdb.DB {
	docs, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sort.SliceStable(docs, func(i, j int) bool { return docs[i].Day < docs[j].Day })
	db, _ := text.ToDB(docs, nil)
	return db
}

// BenchmarkPairGen times pass-2 candidate generation alone — every outer
// item of every node, after the THT exchange — on each path in turn: the
// sweep (building its slot postings included) and the per-pair loop. It
// reports the sweep's steps per partner pair, the quantity the gate
// (sweepCrossover) compares, on four shapes:
//   - stream-8wk: one 7-day window of the stream benchmark's corpus C
//     (15 documents a day over the whole stream's vocabulary), MIHP over
//     400 slots at minimum support count 3;
//   - sim-8day: corpus B at harness scale cut to 160 documents, on 8
//     nodes of 50 slots at minimum support count 3;
//   - paper-smoke: paper-scale corpus B on 8 nodes of 50 slots at 2%
//     support (E3PaperSmoke_PMIHP8), about 180 documents per node;
//   - e9dense: the no-stoplist corpus at test scale on 8 nodes of 50
//     slots at 10% support (E9Dense_PMIHP8), where most frequent words
//     occur in most documents, so most rows share most slot lists.
func BenchmarkPairGen(b *testing.B) {
	for _, sh := range []struct {
		name     string
		db       func(b *testing.B) *txdb.DB
		nodes    int
		entries  int
		minCount int
	}{
		{"stream-8wk", func(b *testing.B) *txdb.DB {
			cfg := corpus.CorpusC(corpus.Harness)
			cfg.Days = 80
			db := corpusDB(b, cfg)
			var win []txdb.Transaction
			db.Each(func(t *txdb.Transaction) {
				if t.Day < 7 {
					win = append(win, *t)
				}
			})
			return txdb.New(win, db.NumItems())
		}, 1, 400, 3},
		{"sim-8day", func(b *testing.B) *txdb.DB {
			cfg := corpus.CorpusB(corpus.Harness)
			cfg.Docs = 160
			return corpusDB(b, cfg)
		}, 8, 50, 3},
		{"paper-smoke", func(b *testing.B) *txdb.DB {
			return corpusDB(b, corpus.CorpusB(corpus.Paper))
		}, 8, 50, mining.Options{MinSupFrac: 0.02}.MinCount(1427)},
		{"e9dense", func(b *testing.B) *txdb.DB {
			return corpusDB(b, corpus.CorpusDense(corpus.Small))
		}, 8, 50, mining.Options{MinSupFrac: 0.10}.MinCount(96)},
	} {
		b.Run(sh.name, func(b *testing.B) {
			miners := pairGenMiners(sh.db(b), sh.nodes, sh.entries, sh.minCount)
			steps, pairs := 0.0, 0.0
			for _, lm := range miners {
				n := float64(len(lm.selfPresent))
				steps += float64(sweepSteps(lm))
				pairs += n * (n - 1) / 2
			}
			for _, sweep := range []bool{true, false} {
				name := "per-pair"
				if sweep {
					name = "sweep"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for _, lm := range miners {
							lm.postings = nil
							if sweep {
								lm.postings = lm.pairScan.NewSlotPostings(lm.selfPresent, math.MaxInt64)
							}
							g := lm.newGenShard()
							for _, a := range lm.freqItems {
								lm.genOuter(g, a)
							}
						}
					}
					b.ReportMetric(steps/pairs, "steps/pair")
				})
			}
		})
	}
}
