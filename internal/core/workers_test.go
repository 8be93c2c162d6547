package core

import (
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/text"
)

// pairCountToFlenRef is the seed's linear search: the smallest n >= 2 whose
// pair count n*(n-1)/2 covers pairs.
func pairCountToFlenRef(pairs int) int {
	if pairs <= 0 {
		return 0
	}
	n := 2
	for n*(n-1)/2 < pairs {
		n++
	}
	return n
}

// TestPairCountToFlenInversion: the closed-form integer-sqrt inversion must
// agree with the linear reference everywhere, including the exact triangular
// numbers and their neighbours where float rounding could bite.
func TestPairCountToFlenInversion(t *testing.T) {
	for pairs := -3; pairs <= 20000; pairs++ {
		if got, want := pairCountToFlen(pairs), pairCountToFlenRef(pairs); got != want {
			t.Fatalf("pairCountToFlen(%d) = %d, want %d", pairs, got, want)
		}
	}
	// Triangular numbers around large n, plus off-by-one neighbours.
	for _, n := range []int{100, 1000, 65536, 1 << 20} {
		tri := n * (n - 1) / 2
		for _, pairs := range []int{tri - 1, tri, tri + 1} {
			got := pairCountToFlen(pairs)
			if got*(got-1)/2 < pairs {
				t.Fatalf("pairCountToFlen(%d) = %d does not cover pairs", pairs, got)
			}
			if got > 2 && (got-1)*(got-2)/2 >= pairs {
				t.Fatalf("pairCountToFlen(%d) = %d is not minimal", pairs, got)
			}
		}
	}
}

// TestMinersIdenticalAcrossWorkerCounts: every sharded kernel must produce
// the same frequent itemsets, supports, and simulated times for every
// worker count — intra-node workers may only change wall-clock time. Run
// with -race this also exercises the shard scans for data races.
func TestMinersIdenticalAcrossWorkerCounts(t *testing.T) {
	docs, err := corpus.Generate(corpus.CorpusB(corpus.Small))
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)

	baseOpts := mining.Options{MinSupCount: 2, MaxK: 3}

	t.Run("MIHP", func(t *testing.T) {
		opts := baseOpts
		opts.IntraNodeWorkers = 1
		want, err := MineMIHP(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 5} {
			opts.IntraNodeWorkers = workers
			got, err := MineMIHP(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ok, diff := mining.SameFrequentSets(want, got); !ok {
				t.Fatalf("workers=%d frequent sets differ: %s", workers, diff)
			}
			if want.Metrics.Work.Units != got.Metrics.Work.Units {
				t.Fatalf("workers=%d charged %d work units, serial charged %d",
					workers, got.Metrics.Work.Units, want.Metrics.Work.Units)
			}
		}
	})

	t.Run("PMIHP", func(t *testing.T) {
		opts := baseOpts
		opts.IntraNodeWorkers = 1
		want, err := MinePMIHP(db, PMIHPConfig{Nodes: 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The pool divides across the 4 simulated nodes, so 8 and 13 give
		// each node 2 and 3 shard workers respectively.
		for _, workers := range []int{8, 13} {
			opts.IntraNodeWorkers = workers
			got, err := MinePMIHP(db, PMIHPConfig{Nodes: 4}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ok, diff := mining.SameFrequentSets(want.Result, got.Result); !ok {
				t.Fatalf("workers=%d frequent sets differ: %s", workers, diff)
			}
			if want.TotalSeconds != got.TotalSeconds {
				t.Fatalf("workers=%d simulated %v s, serial simulated %v s",
					workers, got.TotalSeconds, want.TotalSeconds)
			}
			for i := range want.Nodes {
				if want.Nodes[i].Seconds != got.Nodes[i].Seconds {
					t.Fatalf("workers=%d node %d clock %v, serial %v",
						workers, i, got.Nodes[i].Seconds, want.Nodes[i].Seconds)
				}
			}
		}
	})
}
