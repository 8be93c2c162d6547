package core

import (
	"sync"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
)

func TestPairTallyCounts(t *testing.T) {
	ta := NewPairTally()
	ta.note(0, mining.PairKey(1, 2))
	ta.note(1, mining.PairKey(1, 2))
	ta.note(0, mining.PairKey(3, 4))
	ta.note(0, mining.PairKey(3, 4)) // same node twice: still one bit
	if ta.Distinct() != 2 {
		t.Fatalf("Distinct = %d", ta.Distinct())
	}
	if ta.CountedAtLeast(1) != 2 || ta.CountedAtLeast(2) != 1 || ta.CountedAtLeast(3) != 0 {
		t.Fatalf("CountedAtLeast = %d/%d/%d",
			ta.CountedAtLeast(1), ta.CountedAtLeast(2), ta.CountedAtLeast(3))
	}
}

func TestPairTallyBatchOnlyPairs(t *testing.T) {
	ta := NewPairTally()
	ta.noteBatch(2, 3, []itemset.Itemset{itemset.New(1, 2, 3)}) // ignored: k != 2
	ta.noteBatch(2, 2, []itemset.Itemset{itemset.New(1, 2), itemset.New(2, 5)})
	if ta.Distinct() != 2 {
		t.Fatalf("Distinct = %d", ta.Distinct())
	}
}

func TestPairTallyConcurrent(t *testing.T) {
	ta := NewPairTally()
	var wg sync.WaitGroup
	for node := 0; node < 8; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ta.note(node, mining.PairKey(itemset.Item(i%50), itemset.Item(100+i%50)))
			}
		}(node)
	}
	wg.Wait()
	if ta.Distinct() != 50 {
		t.Fatalf("Distinct = %d", ta.Distinct())
	}
	if ta.CountedAtLeast(8) != 50 {
		t.Fatalf("CountedAtLeast(8) = %d", ta.CountedAtLeast(8))
	}
}

func TestParallelResultHelpers(t *testing.T) {
	mk := func(cand2 int, secs float64) NodeReport {
		m := mining.NewMetrics("x")
		m.AddCandidates(2, cand2)
		return NodeReport{Metrics: m, Seconds: secs}
	}
	r := &ParallelResult{Nodes: []NodeReport{mk(10, 2), mk(30, 4)}}
	if got := r.AvgCandidates(2); got != 20 {
		t.Fatalf("AvgCandidates = %g", got)
	}
	if got := r.AvgNodeSeconds(); got != 3 {
		t.Fatalf("AvgNodeSeconds = %g", got)
	}
	empty := &ParallelResult{}
	if empty.AvgCandidates(2) != 0 || empty.AvgNodeSeconds() != 0 {
		t.Fatal("empty result helpers should be zero")
	}
}

func TestPMIHPNodeReportsPopulated(t *testing.T) {
	db := craftedDB()
	r, err := MinePMIHP(db, PMIHPConfig{Nodes: 2}, mining.Options{MinSupCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(r.Nodes))
	}
	docs := 0
	for i, n := range r.Nodes {
		if n.Node != i {
			t.Fatalf("node id %d at index %d", n.Node, i)
		}
		if n.LocalMin < 1 {
			t.Fatalf("node %d localMin %d", i, n.LocalMin)
		}
		if n.Seconds <= 0 {
			t.Fatalf("node %d has no simulated time", i)
		}
		docs += n.Docs
	}
	if docs != db.Len() {
		t.Fatalf("node docs cover %d of %d", docs, db.Len())
	}
	if r.THTExchangeSeconds <= 0 {
		t.Fatal("THT exchange not accounted")
	}
	if r.Result.Metrics.Algorithm != "pmihp" {
		t.Fatalf("aggregate algorithm = %q", r.Result.Metrics.Algorithm)
	}
}
