// Package integration holds the cross-module test suite: every miner in the
// module — Apriori, DHP, FP-Growth, MIHP, Count Distribution, PMIHP — must
// produce exactly the same frequent itemsets with the same exact supports
// on the same corpus, across support levels, node counts, and modes. This
// is the module's central correctness invariant.
package integration

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"pmihp/internal/apriori"
	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/countdist"
	"pmihp/internal/datadist"
	"pmihp/internal/dhp"
	"pmihp/internal/fpgrowth"
	"pmihp/internal/mining"
	"pmihp/internal/rules"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

func buildDB(t testing.TB, cfg corpus.Config) *txdb.DB {
	t.Helper()
	docs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

type minerFn func(*txdb.DB, mining.Options) (*mining.Result, error)

func miners() map[string]minerFn {
	return map[string]minerFn{
		"apriori":  apriori.Mine,
		"dhp":      dhp.Mine,
		"fpgrowth": fpgrowth.Mine,
		"mihp":     core.MineMIHP,
		"cd-3": func(db *txdb.DB, o mining.Options) (*mining.Result, error) {
			r, err := countdist.Mine(db, countdist.Config{Nodes: 3}, o)
			if r == nil {
				return nil, err
			}
			return r.Result, err
		},
		"dd-4": func(db *txdb.DB, o mining.Options) (*mining.Result, error) {
			r, err := datadist.Mine(db, datadist.Config{Nodes: 4}, o)
			if r == nil {
				return nil, err
			}
			return r.Result, err
		},
		"pmihp-4": func(db *txdb.DB, o mining.Options) (*mining.Result, error) {
			r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 4}, o)
			if r == nil {
				return nil, err
			}
			return r.Result, err
		},
		"pmihp-7-deferred": func(db *txdb.DB, o mining.Options) (*mining.Result, error) {
			// Non-power-of-two nodes plus deferred polling.
			r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 7, Mode: core.Deferred}, o)
			if r == nil {
				return nil, err
			}
			return r.Result, err
		},
	}
}

func TestAllMinersAgree(t *testing.T) {
	for _, tc := range []struct {
		corpus corpus.Config
		opts   mining.Options
	}{
		{corpus.CorpusA(corpus.Small), mining.Options{MinSupFrac: 0.05, MaxK: 4}},
		{corpus.CorpusB(corpus.Small), mining.Options{MinSupCount: 2, MaxK: 3}},
		{corpus.CorpusB(corpus.Small), mining.Options{MinSupFrac: 0.08}},
		{corpus.CorpusC(corpus.Small), mining.Options{MinSupCount: 2, MaxK: 2}},
	} {
		db := buildDB(t, tc.corpus)
		ref, err := core.MineMIHP(db, tc.opts)
		if err != nil {
			t.Fatalf("%s: mihp: %v", tc.corpus.Name, err)
		}
		for name, mine := range miners() {
			r, err := mine(db, tc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.corpus.Name, name, err)
			}
			if ok, diff := mining.SameFrequentSets(ref, r); !ok {
				t.Fatalf("%s/%s differs from MIHP: %s", tc.corpus.Name, name, diff)
			}
		}
	}
}

func TestBruteForceAnchorsTheReference(t *testing.T) {
	// The web of pairwise agreements above is anchored to ground truth here:
	// MIHP equals exhaustive counting on a corpus small enough to afford it.
	cfg := corpus.CorpusB(corpus.Small)
	cfg.Docs, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 48, 400, 30, 14
	db := buildDB(t, cfg)
	opts := mining.Options{MinSupCount: 2}
	want := mining.BruteForce(db, opts)
	got, err := core.MineMIHP(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(want, got); !ok {
		t.Fatal(diff)
	}
}

// TestPMIHPDeterministic: simulated seconds are bit-exact. Node clocks
// count whole picoseconds, so poll service charged from peers' goroutines
// in any order lands on the same totals: three runs at each of 1, 2 and 4
// intra-node workers per node, in both polling modes, must reproduce the
// first run's clocks exactly.
func TestPMIHPDeterministic(t *testing.T) {
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	const nodes = 4
	for _, mode := range []core.PollMode{core.Interleaved, core.Deferred} {
		var ref *core.ParallelResult
		for _, workers := range []int{1, 2, 4} {
			// MinePMIHP divides the worker pool across its nodes.
			opts := mining.Options{MinSupCount: 2, MaxK: 3, IntraNodeWorkers: workers * nodes}
			for run := 0; run < 3; run++ {
				r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: nodes, Mode: mode}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = r
					continue
				}
				at := fmt.Sprintf("mode %d, %d workers, run %d", mode, workers, run)
				if ok, diff := mining.SameFrequentSets(ref.Result, r.Result); !ok {
					t.Fatalf("%s differs: %s", at, diff)
				}
				if r.TotalSeconds != ref.TotalSeconds || r.GlobalCountSeconds != ref.GlobalCountSeconds {
					t.Fatalf("%s: simulated %v s (global counting %v s), first run %v s (%v s)",
						at, r.TotalSeconds, r.GlobalCountSeconds, ref.TotalSeconds, ref.GlobalCountSeconds)
				}
				for n := range r.Nodes {
					if r.Nodes[n].Seconds != ref.Nodes[n].Seconds {
						t.Fatalf("%s: node %d clock %v s, first run %v s", at, n, r.Nodes[n].Seconds, ref.Nodes[n].Seconds)
					}
					if r.Nodes[n].Metrics.Candidates() != ref.Nodes[n].Metrics.Candidates() {
						t.Fatalf("%s: node %d candidate accounting differs", at, n)
					}
				}
			}
		}
	}
}

func TestEndToEndRulesPipeline(t *testing.T) {
	// Corpus -> PMIHP -> rules: every rule's confidence must be consistent
	// with exact supports recounted from the raw database.
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	par, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 4}, mining.Options{MinSupCount: 3, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.Generate(par.Result.Frequent, db.Len(), 0.6)
	if len(rs) == 0 {
		t.Fatal("no rules generated")
	}
	for i, r := range rs {
		if i >= 50 {
			break
		}
		supA := mining.CountSupport(db, r.Antecedent)
		supU := r.Support
		if got := float64(supU) / float64(supA); got != r.Confidence {
			t.Fatalf("rule %v: confidence %g, recomputed %g", r, r.Confidence, got)
		}
		if r.Confidence < 0.6 {
			t.Fatalf("rule below minconf: %v", r)
		}
	}
}

func TestMaxKConsistentAcrossMiners(t *testing.T) {
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 3, MaxK: 2}
	for name, mine := range miners() {
		r, err := mine(db, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range r.Frequent {
			if len(c.Set) > 2 {
				t.Fatalf("%s emitted %v beyond MaxK", name, c.Set)
			}
		}
	}
}

func TestParallelMinersAcrossNodeCounts(t *testing.T) {
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref, err := core.MineMIHP(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for nodes := 1; nodes <= 9; nodes++ {
		name := fmt.Sprintf("pmihp-%d", nodes)
		r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: nodes}, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, diff := mining.SameFrequentSets(ref, r.Result); !ok {
			t.Fatalf("%s: %s", name, diff)
		}
	}
}

// TestBaselinesHonorPartitioner runs Count and Data Distribution on the
// skewed corpus at 4 nodes under both partitioners. The work split must
// give each node the documents txdb.SplitByWork gives it, and change no
// frequent itemset or count.
func TestBaselinesHonorPartitioner(t *testing.T) {
	db := buildDB(t, corpus.CorpusSkewed(corpus.Small))
	var want []int
	for _, p := range db.SplitByWork(4) {
		want = append(want, p.Len())
	}
	for name, mine := range map[string]func(mining.Options) (*core.ParallelResult, error){
		"cd": func(o mining.Options) (*core.ParallelResult, error) {
			return countdist.Mine(db, countdist.Config{Nodes: 4}, o)
		},
		"dd": func(o mining.Options) (*core.ParallelResult, error) {
			return datadist.Mine(db, datadist.Config{Nodes: 4}, o)
		},
	} {
		byCount, err := mine(mining.Options{MinSupCount: 3, MaxK: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		byWork, err := mine(mining.Options{MinSupCount: 3, MaxK: 3, Partitioner: mining.PartitionByWork})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, diff := mining.SameFrequentSets(byCount.Result, byWork.Result); !ok {
			t.Errorf("%s: work split changed the frequent sets: %s", name, diff)
		}
		var docs []int
		for _, n := range byWork.Nodes {
			docs = append(docs, n.Docs)
		}
		if !slices.Equal(docs, want) {
			t.Errorf("%s: per-node docs %v under the work split, want SplitByWork's %v", name, docs, want)
		}
	}
}

// TestMIHPBruteForceQuick drives MIHP against exhaustive counting across
// randomized corpus shapes, thresholds and tuning knobs.
func TestMIHPBruteForceQuick(t *testing.T) {
	f := func(seedRaw, docsRaw, vocabRaw, minRaw, partRaw, thtRaw uint8) bool {
		cfg := corpus.CorpusB(corpus.Small)
		cfg.Seed = int64(seedRaw)
		cfg.Docs = 20 + int(docsRaw)%40
		cfg.VocabSize = 200 + int(vocabRaw)%400
		cfg.HeadCut = cfg.VocabSize / 20
		cfg.DocLenMean = 12
		docs, err := corpus.Generate(cfg)
		if err != nil {
			t.Logf("generate: %v", err)
			return false
		}
		db, _ := text.ToDB(docs, nil)
		opts := mining.Options{
			MinSupCount:   2 + int(minRaw)%3,
			MaxK:          4,
			PartitionSize: 1 + int(partRaw)%40,
			THTEntries:    1 + int(thtRaw)%130,
		}
		want := mining.BruteForce(db, opts)
		got, err := core.MineMIHP(db, opts)
		if err != nil {
			t.Logf("mihp: %v", err)
			return false
		}
		ok, diff := mining.SameFrequentSets(want, got)
		if !ok {
			t.Logf("opts=%+v: %s", opts, diff)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
