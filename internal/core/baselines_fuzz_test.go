package core_test

import (
	"testing"

	"pmihp/internal/apriori"
	"pmihp/internal/core"
	"pmihp/internal/countdist"
	"pmihp/internal/datadist"
	"pmihp/internal/dhp"
	"pmihp/internal/fpgrowth"
	"pmihp/internal/mining"
)

// FuzzBaselinesBruteForce: on any small database (core's fuzz decoder)
// and any options, Apriori, DHP, FP-Growth, and Count and Data
// Distribution on 1–8 nodes under either partitioner each find exactly
// the frequent itemsets and supports of exhaustive counting. Count
// Distribution on one node must also charge Apriori's work units and
// subset prunings: it is Apriori, run as a cluster of one.
func FuzzBaselinesBruteForce(f *testing.F) {
	for _, s := range []struct {
		seed                         int64
		txs                          int
		minsup, maxk, nodes, workRaw uint8
	}{
		{1, 60, 0, 2, 0, 0},
		{2, 90, 1, 0, 1, 1},
		{3, 120, 2, 1, 2, 0},
		{4, 150, 3, 2, 5, 1},
		{5, 40, 0, 2, 7, 0},
	} {
		f.Add(core.FuzzCorpus(s.seed, s.txs), s.minsup, s.maxk, s.nodes, s.workRaw)
	}
	f.Fuzz(func(t *testing.T, data []byte, minsup, maxk, nodesRaw, workRaw uint8) {
		if len(data) > core.FuzzMaxBytes {
			return
		}
		db := core.FuzzDB(data)
		nodes := 1 + int(nodesRaw)%8
		opts := mining.Options{
			MinSupCount: 2 + int(minsup)%4,
			MaxK:        2 + int(maxk)%3,
			Partitioner: mining.Partitioner(workRaw % 2),
		}
		want := mining.BruteForce(db, opts)
		check := func(name string, got *mining.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if ok, diff := mining.SameFrequentSets(want, got); !ok {
				t.Fatalf("%s %+v differs from brute force: %s", name, opts, diff)
			}
		}
		parallel := func(r *core.ParallelResult, err error) (*mining.Result, error) {
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}

		apr, err := apriori.Mine(db, opts)
		check("apriori", apr, err)
		got, err := dhp.Mine(db, opts)
		check("dhp", got, err)
		got, err = fpgrowth.Mine(db, opts)
		check("fpgrowth", got, err)
		got, err = parallel(countdist.Mine(db, countdist.Config{Nodes: nodes}, opts))
		check("countdist", got, err)
		got, err = parallel(datadist.Mine(db, datadist.Config{Nodes: nodes}, opts))
		check("datadist", got, err)

		one, err := parallel(countdist.Mine(db, countdist.Config{Nodes: 1}, opts))
		check("countdist on one node", one, err)
		if g, w := one.Metrics, apr.Metrics; g.Work.Units != w.Work.Units || g.PrunedBySubset != w.PrunedBySubset {
			t.Fatalf("countdist on one node %+v: work units %d, pruned by subset %d; apriori %d, %d",
				opts, g.Work.Units, g.PrunedBySubset, w.Work.Units, w.PrunedBySubset)
		}
	})
}
