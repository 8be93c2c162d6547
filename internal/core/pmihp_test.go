package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
)

// requireSameList asserts two frequent lists are byte-identical: the
// same itemsets with the same counts in the same order.
func requireSameList(t *testing.T, want, got []itemset.Counted) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frequent list length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !want[i].Set.Equal(got[i].Set) || want[i].Count != got[i].Count {
			t.Fatalf("entry %d: got %v/%d, want %v/%d", i, got[i].Set, got[i].Count, want[i].Set, want[i].Count)
		}
	}
}

// TestPMIHPMatchesMIHP: at every node count, power of two or not, PMIHP's
// frequent list is byte-identical to the sequential miner's, under
// fractional and absolute support, bounded and unbounded depth.
func TestPMIHPMatchesMIHP(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	// MaxK bounds most runs as the paper's scaling experiments do ("to
	// find frequent 3-itemsets"): at many nodes the local minimum support
	// count reaches 1, where unbounded depth enumerates entire documents.
	frac := mining.Options{MinSupFrac: 0.05, MaxK: 4}
	count := mining.Options{MinSupCount: 2, MaxK: 3}
	for _, tc := range []struct {
		nodes int
		opts  []mining.Options
	}{
		{1, []mining.Options{frac, count}},
		{2, []mining.Options{frac, count}},
		{4, []mining.Options{frac}},
		{7, []mining.Options{frac, count}},
		{8, []mining.Options{frac, {MinSupCount: 3}}},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.nodes), func(t *testing.T) {
			for _, opts := range tc.opts {
				seq, err := MineMIHP(db, opts)
				if err != nil {
					t.Fatalf("MIHP: %v", err)
				}
				par, err := MinePMIHP(db, PMIHPConfig{Nodes: tc.nodes}, opts)
				if err != nil {
					t.Fatalf("PMIHP(%d): %v", tc.nodes, err)
				}
				requireSameList(t, seq.Frequent, par.Result.Frequent)
				if par.TotalSeconds <= 0 {
					t.Fatalf("PMIHP(%d): no simulated time recorded", tc.nodes)
				}
			}
		})
	}
}

// TestPMIHPInterleavedFlushes drives the interleaved path with tiny
// GlobalCandidateBatch values, so nodes poll in the middle of their local
// mining. The output stays byte-identical to MIHP in exact mode and
// membership-identical with ApproxDirectCounts, some node must poll in
// more than one round (the mid-mining flushes ran), and deferred mode
// still polls at most once per node.
func TestPMIHPInterleavedFlushes(t *testing.T) {
	db := smallDB(t, corpus.CorpusB(corpus.Small))
	for _, batch := range []int{1, 5} {
		opts := mining.Options{MinSupCount: 2, MaxK: 3, GlobalCandidateBatch: batch}
		seq, err := MineMIHP(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{2, 7, 8} {
			t.Run(fmt.Sprintf("batch=%d/n=%d", batch, nodes), func(t *testing.T) {
				exact, err := MinePMIHP(db, PMIHPConfig{Nodes: nodes}, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameList(t, seq.Frequent, exact.Result.Frequent)
				rounds := 0
				for _, n := range exact.Nodes {
					rounds = max(rounds, n.Metrics.PollRounds)
				}
				if rounds < 2 {
					t.Fatalf("no node polled more than once (max %d rounds): no mid-mining flush ran", rounds)
				}

				approx, err := MinePMIHP(db, PMIHPConfig{Nodes: nodes, ApproxDirectCounts: true}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := approx.Result.Set(); got.Len() != len(seq.Frequent) {
					t.Fatalf("approx mode found %d itemsets, MIHP %d", got.Len(), len(seq.Frequent))
				} else {
					for _, c := range seq.Frequent {
						if !got.Has(c.Set) {
							t.Fatalf("approx mode missing %v", c.Set)
						}
					}
				}

				def, err := MinePMIHP(db, PMIHPConfig{Nodes: nodes, Mode: Deferred}, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameList(t, seq.Frequent, def.Result.Frequent)
				for _, n := range def.Nodes {
					if n.Metrics.PollRounds > 1 {
						t.Fatalf("deferred node %d polled in %d rounds", n.Node, n.Metrics.PollRounds)
					}
				}
			})
		}
	}
}

func TestPMIHPMinSupCount(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	cfg.Docs = 96
	db := smallDB(t, cfg)
	// Paper-style absolute minimum support count (Corpus B uses 2).
	opts := mining.Options{MinSupCount: 2, MaxK: 3}

	seq, err := MineMIHP(db, opts)
	if err != nil {
		t.Fatalf("MIHP: %v", err)
	}
	for _, nodes := range []int{2, 4} {
		par, err := MinePMIHP(db, PMIHPConfig{Nodes: nodes}, opts)
		if err != nil {
			t.Fatalf("PMIHP(%d): %v", nodes, err)
		}
		if ok, diff := mining.SameFrequentSets(seq, par.Result); !ok {
			t.Fatalf("PMIHP(%d) differs from MIHP at minsup count 2: %s", nodes, diff)
		}
	}
}

func TestPMIHPDeferredMode(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	opts := mining.Options{MinSupCount: 2, MaxK: 3}

	inter, err := MinePMIHP(db, PMIHPConfig{Nodes: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	def, err := MinePMIHP(db, PMIHPConfig{Nodes: 4, Mode: Deferred}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mining.SameFrequentSets(inter.Result, def.Result); !ok {
		t.Fatalf("deferred mode changed the answer: %s", diff)
	}
	if def.GlobalCountSeconds < 0 {
		t.Fatalf("negative global counting phase: %g", def.GlobalCountSeconds)
	}
}

func TestPMIHPApproxDirectCountsMembership(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	opts := mining.Options{MinSupCount: 2, MaxK: 3}

	exact, err := MinePMIHP(db, PMIHPConfig{Nodes: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := MinePMIHP(db, PMIHPConfig{Nodes: 4, ApproxDirectCounts: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Approx mode must find exactly the same itemsets; counts for directly
	// global itemsets may be local lower bounds.
	es, as := exact.Result.Set(), approx.Result.Set()
	if es.Len() != as.Len() {
		t.Fatalf("approx mode found %d itemsets, exact %d", as.Len(), es.Len())
	}
	for _, c := range exact.Result.Frequent {
		if !as.Has(c.Set) {
			t.Fatalf("approx mode missing %v", c.Set)
		}
	}
	for _, c := range approx.Result.Frequent {
		var exactCount int
		for _, e := range exact.Result.Frequent {
			if e.Set.Equal(c.Set) {
				exactCount = e.Count
				break
			}
		}
		if c.Count > exactCount {
			t.Fatalf("approx count %d exceeds exact %d for %v", c.Count, exactCount, c.Set)
		}
	}
}

// TestPMIHPInvariantAcrossWorkersAndLayouts: the intra-node worker count
// is a physical execution knob. The frequent itemsets, the simulated
// seconds, the charged work units and the peak held bytes must be
// identical at every worker count. The whole invariant must hold under
// both partitioners — the work split changes WHERE transactions live (so
// its simulated seconds and work distribution differ from the count
// split's), but within a partitioner every quantity is still
// byte-identical at every worker count, and the frequent itemsets match
// across partitioners. The posting layouts (all-compressed, default,
// all-bitmap) are checked at the poll counter, where they are chosen:
// TestPollCounterLayoutsAndWorkers.
func TestPMIHPInvariantAcrossWorkersAndLayouts(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)

	run := func(p mining.Partitioner, workers int) *ParallelResult {
		opts := mining.Options{
			MinSupCount: 2, MaxK: 3,
			IntraNodeWorkers: workers,
			Partitioner:      p,
		}
		par, err := MinePMIHP(db, PMIHPConfig{Nodes: 2}, opts)
		if err != nil {
			t.Fatalf("PMIHP(%v, workers=%d): %v", p, workers, err)
		}
		return par
	}
	workUnits := func(par *ParallelResult) int64 {
		var u int64
		for _, n := range par.Nodes {
			u += n.Metrics.Work.Units
		}
		return u
	}
	heldBytes := func(par *ParallelResult) int64 {
		var b int64
		for _, n := range par.Nodes {
			b += n.Metrics.PeakHeldBytes
		}
		return b
	}

	countRef := run(mining.PartitionByCount, 1)
	for _, p := range []mining.Partitioner{mining.PartitionByCount, mining.PartitionByWork} {
		ref := run(p, 1)
		refWork, refHeld := workUnits(ref), heldBytes(ref)
		if ok, diff := mining.SameFrequentSets(countRef.Result, ref.Result); !ok {
			t.Fatalf("partitioner %v changed the answer: %s", p, diff)
		}
		for _, workers := range []int{2, 4, 8} {
			par := run(p, workers)
			if ok, diff := mining.SameFrequentSets(ref.Result, par.Result); !ok {
				t.Fatalf("%v/workers=%d changed the answer: %s", p, workers, diff)
			}
			if par.TotalSeconds != ref.TotalSeconds {
				t.Fatalf("%v/workers=%d: simulated %g s, reference %g s",
					p, workers, par.TotalSeconds, ref.TotalSeconds)
			}
			if w := workUnits(par); w != refWork {
				t.Fatalf("%v/workers=%d: charged %d work units, reference %d",
					p, workers, w, refWork)
			}
			if h := heldBytes(par); h != refHeld {
				t.Fatalf("%v/workers=%d: peak held %d bytes, single-worker run held %d",
					p, workers, h, refHeld)
			}
		}
	}
}

// TestPostingsCountMatchesScan: the poll service's posting-intersection
// counts must equal direct support counts for arbitrary itemsets, under
// every posting layout (all-compressed, default hybrid, all-bitmap).
func TestPostingsCountMatchesScan(t *testing.T) {
	cfg := corpus.CorpusB(corpus.Small)
	db := smallDB(t, cfg)
	for _, tc := range []struct {
		name      string
		threshold float64
	}{
		{"compressed", math.Inf(1)},
		{"hybrid", 0},
		{"bitmap", denseThresholdAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mining.NewMetrics("test")
			p := buildPostings(db, &m, 1, tc.threshold)
			rng := rand.New(rand.NewSource(77))
			for trial := 0; trial < 300; trial++ {
				k := 1 + rng.Intn(3)
				raw := make([]uint32, k)
				for j := range raw {
					raw[j] = uint32(rng.Intn(db.NumItems()))
				}
				x := itemset.New(raw...)
				want := mining.CountSupport(db, x)
				if got := p.count(x, &m); got != want {
					t.Fatalf("postings count(%v) = %d, want %d", x, got, want)
				}
			}
			if m.Work.Units <= 0 {
				t.Fatal("posting work not charged")
			}
		})
	}
}
