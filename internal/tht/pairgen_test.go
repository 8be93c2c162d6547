package tht

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// perPairOracle is the paper's pass-2 decision at node self, written
// against the general bounds: for every F1 item a with a row in the node's
// own segment, and every later such item b, the self-segment bound
// Local.BoundReaches({a, b}, minLocal) and then, on a cascade, the
// cascaded bound Global.BoundReaches({a, b}, minPrune), charged as the
// loop goes. It returns the surviving pairs in loop order with the pairs
// considered, the slots read and the pairs pruned.
func perPairOracle(g *Global, self int, f1 []itemset.Item, minLocal, minPrune int) (pairs []itemset.Itemset, considered, slots, pruned int64) {
	seg := g.Segment(self)
	for x, a := range f1 {
		if seg.rowIndex(a) < 0 {
			continue // absent from the node's database: no countable pair
		}
		for _, b := range f1[x+1:] {
			if seg.rowIndex(b) < 0 {
				continue
			}
			considered++
			pair := itemset.New(a, b)
			ok, n := seg.BoundReaches(pair, minLocal)
			slots += int64(n)
			if ok && g.NumSegments() > 1 {
				ok, n = g.BoundReaches(pair, minPrune)
				slots += int64(n)
			}
			if !ok {
				pruned++
				continue
			}
			pairs = append(pairs, pair)
		}
	}
	return pairs, considered, slots, pruned
}

// decideAll runs pg's decision for every present item in turn and
// gathers what Partners returns.
func decideAll(pg *PairGen) (pairs []itemset.Itemset, considered, slots, pruned int64) {
	s := pg.NewScratch()
	for i, a := range pg.Items() {
		partners, c, sl, pr := pg.Partners(s, i)
		considered += c
		slots += sl
		pruned += pr
		for _, b := range partners {
			pairs = append(pairs, itemset.New(a, pg.items[b]))
		}
	}
	return pairs, considered, slots, pruned
}

// skewedDB draws a random database over numItems items whose low ids are
// far more frequent than its high ones, so rows range from one occupied
// slot to many. It holds two to five times as many transactions as
// entries, so counters exceed 1. When saturate is set, item 0 occurs in
// every transaction, so its row occupies every slot.
func skewedDB(rng *rand.Rand, entries, numItems int, saturate bool) *txdb.DB {
	n := entries*(2+rng.Intn(4)) + rng.Intn(20)
	txs := make([]txdb.Transaction, n)
	for i := range txs {
		var raw []uint32
		if saturate {
			raw = append(raw, 0)
		}
		for k := rng.Intn(6); k >= 0; k-- {
			u := rng.Float64()
			raw = append(raw, uint32(u*u*float64(numItems)))
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(raw...)}
	}
	return txdb.New(txs, numItems)
}

// slotCounts returns every item's THT row over entries slots, counted
// from db directly: a transaction with TID t lands in slot t mod entries.
func slotCounts(db *txdb.DB, entries int) [][]int {
	rows := make([][]int, db.NumItems())
	for it := range rows {
		rows[it] = make([]int, entries)
	}
	for i := 0; i < db.Len(); i++ {
		for _, it := range db.ItemsOf(i) {
			rows[it][int(db.TIDOf(i))%entries]++
		}
	}
	return rows
}

// pairBound is the pair's bound over one segment's rows — the sum of the
// slot minima — and the number of slots both rows occupy.
func pairBound(a, b []int) (sum, shared int) {
	for j := range a {
		if m := min(a[j], b[j]); m > 0 {
			sum += m
			shared++
		}
	}
	return sum, shared
}

// TestPairGenMatchesPerPairLoop: both pass-2 decision paths, the sweep
// over the slot lists and the per-pair loop, keep exactly the pairs of the
// oracle, in its order, and charge exactly its considered pairs, THT
// slots and THT prunes. Each path is forced, whatever the gate would
// pick. The cases cover segment widths 1–130 (one-word masks through
// three-word ones, across the 64-slot boundary), 1–8 segments, local
// thresholds 1–6 and cascade thresholds up to 40, over databases with
// several transactions per slot. They must meet pairs that reach the
// cascade threshold only through peers' segments and pairs that reach it
// within the self segment, self bounds that reach the local threshold
// part-way through their shared slots, pairs of saturated rows, and
// disjoint pairs of multi-word masks.
func TestPairGenMatchesPerPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var peersOnly, withinSelf, partway, saturatedPairs, wideDisjoint int
	for entries := 1; entries <= 130; entries++ {
		nseg := 1 + rng.Intn(8)
		numItems := 20 + rng.Intn(80)
		saturate := rng.Intn(2) == 0
		segs := make([]*Local, nseg)
		freqArr := make([]bool, numItems)
		var freq []itemset.Item
		for it := 0; it < numItems; it++ {
			if rng.Intn(5) > 0 {
				freqArr[it] = true
				freq = append(freq, itemset.Item(it))
			}
		}
		if saturate {
			freqArr[0] = true
			if len(freq) == 0 || freq[0] != 0 {
				freq = append([]itemset.Item{0}, freq...)
			}
		}
		counts := make([][][]int, nseg)
		for p := range segs {
			db := skewedDB(rng, entries, numItems, saturate)
			segs[p] = Build(db, entries, db.ItemCounts(), freqArr)
			counts[p] = slotCounts(db, entries)
		}
		g := NewGlobal(segs)
		for self := 0; self < nseg; self++ {
			minLocal := 1 + rng.Intn(6)
			minPrune := minLocal + rng.Intn(35)
			want, wantC, wantS, wantP := perPairOracle(g, self, freq, minLocal, minPrune)
			for _, path := range []struct {
				name   string
				budget int64
			}{{"sweep", math.MaxInt64}, {"per-pair", -1}} {
				pg := g.newPairGen(self, minLocal, minPrune, path.budget)
				if (pg.post != nil) != (path.name == "sweep") {
					t.Fatalf("%s: the gate was not forced", path.name)
				}
				got, gotC, gotS, gotP := decideAll(pg)
				if !slices.EqualFunc(got, want, itemset.Itemset.Equal) {
					t.Fatalf("%s, entries=%d segments=%d self=%d minLocal=%d minPrune=%d: pairs %v, oracle %v",
						path.name, entries, nseg, self, minLocal, minPrune, got, want)
				}
				if gotC != wantC || gotS != wantS || gotP != wantP {
					t.Fatalf("%s, entries=%d segments=%d self=%d minLocal=%d minPrune=%d: charged %d pairs, %d slots, %d THT prunes; oracle %d, %d, %d",
						path.name, entries, nseg, self, minLocal, minPrune, gotC, gotS, gotP, wantC, wantS, wantP)
				}
			}

			// Tally the cases the comparison met.
			present := segs[self].rowItem
			for x, a := range present {
				for _, b := range present[x+1:] {
					selfSum, selfSlots := pairBound(counts[self][a], counts[self][b])
					if selfSlots > 0 && selfSlots < minLocal && selfSum >= minLocal {
						partway++
					}
					if selfSlots == entries && entries > 1 {
						saturatedPairs++
					}
					if selfSlots == 0 && entries > 64 {
						wideDisjoint++
					}
					if selfSum < minLocal || nseg == 1 {
						continue
					}
					total := 0
					for p := range counts {
						sum, _ := pairBound(counts[p][a], counts[p][b])
						total += sum
					}
					switch {
					case selfSum >= minPrune:
						withinSelf++
					case total >= minPrune:
						peersOnly++
					}
				}
			}
		}
	}
	t.Logf("pairs reaching the cascade threshold through peers %d, within self %d; self bounds reached part-way %d; saturated pairs %d; disjoint multi-word pairs %d",
		peersOnly, withinSelf, partway, saturatedPairs, wideDisjoint)
	if peersOnly == 0 || withinSelf == 0 || partway == 0 || saturatedPairs == 0 || wideDisjoint == 0 {
		t.Fatal("the comparison missed a case")
	}
}

// sweepSteps is the number of entry pairs that share a slot list in the
// slot lists of segment self's node — the steps of sweeping every present
// item — built whatever the gate picks.
func sweepSteps(g *Global, self int) int64 {
	x := g.newPairGen(self, 1, 1, math.MaxInt64).post
	steps := int64(0)
	for k := 1; k < len(x.start); k++ {
		l := int64(x.start[k] - x.start[k-1])
		steps += l * (l - 1) / 2
	}
	return steps
}

// TestPairGenGate: the gate sweeps a sparse table, whose rows occupy few
// of many slots, and probes pair by pair on a saturated one, whose rows
// all occupy all of few slots.
func TestPairGenGate(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		entries, docs, numItems int
		sweep                   bool
	}{
		{"sparse", 400, 60, 300, true},
		{"saturated", 16, 400, 20, false},
	} {
		rng := rand.New(rand.NewSource(int64(tc.entries)))
		txs := make([]txdb.Transaction, tc.docs)
		for i := range txs {
			raw := make([]uint32, 12)
			for k := range raw {
				raw[k] = uint32(rng.Intn(tc.numItems))
			}
			txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(raw...)}
		}
		db := txdb.New(txs, tc.numItems)
		counts := db.ItemCounts()
		freq, _ := mining.FrequentItems(counts, 1)
		g := NewGlobal([]*Local{Build(db, tc.entries, counts, freq)})
		if got := g.NewPairGen(0, 1, 1).post != nil; got != tc.sweep {
			n := float64(g.Segment(0).NumItems())
			t.Fatalf("%s: gate swept %v, want %v (%.2f steps per partner pair)",
				tc.name, got, tc.sweep, float64(sweepSteps(g, 0))/(n*(n-1)/2))
		}
	}
}

// pairGenCascade returns the cascade of a run over db on nodes nodes with
// segments of entries slots, as the nodes hold it after the THT exchange
// (and as MineMIHP holds it on one node), with each node's local
// threshold: the global one scaled to the node's share of the documents,
// at least 1, as core.LocalMinCount computes it.
func pairGenCascade(db *txdb.DB, nodes, entries, minCount int) (*Global, []int) {
	parts := db.SplitChronological(nodes)
	counts := make([][]int, nodes)
	global := make([]int, db.NumItems())
	for p, part := range parts {
		counts[p] = part.ItemCounts()
		for it, c := range counts[p] {
			global[it] += c
		}
	}
	freq, _ := mining.FrequentItems(global, minCount)
	locals := make([]*Local, nodes)
	minLocal := make([]int, nodes)
	for p, part := range parts {
		locals[p] = Build(part, entries, counts[p], freq)
		minLocal[p] = max(1, minCount*part.Len()/db.Len())
	}
	return NewGlobal(locals), minLocal
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

// BenchmarkPairGen times pass-2 pair decision alone — every present item
// of every node, after the THT exchange — on each path in turn: the sweep
// (building its slot lists included) and the per-pair loop. It reports
// the sweep's steps per partner pair, the quantity the gate
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
			g, minLocal := pairGenCascade(sh.db(b), sh.nodes, sh.entries, sh.minCount)
			steps, pairs := 0.0, 0.0
			for p := range minLocal {
				n := float64(g.Segment(p).NumItems())
				steps += float64(sweepSteps(g, p))
				pairs += n * (n - 1) / 2
			}
			for _, path := range []struct {
				name   string
				budget int64
			}{{"sweep", math.MaxInt64}, {"per-pair", -1}} {
				b.Run(path.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for p, ml := range minLocal {
							pg := g.newPairGen(p, ml, sh.minCount, path.budget)
							s := pg.NewScratch()
							for a := range pg.items {
								pg.Partners(s, a)
							}
						}
					}
					b.ReportMetric(steps/pairs, "steps/pair")
				})
			}
		})
	}
}
