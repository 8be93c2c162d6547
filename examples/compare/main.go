// Compare runs every implemented miner — Apriori, DHP, FP-Growth, MIHP,
// Count Distribution and PMIHP — over the same corpus at several minimum
// support levels, verifying they all find the same frequent itemsets and
// contrasting their simulated costs (a miniature of Figures 4 and 5).
package main

import (
	"errors"
	"fmt"
	"log"

	"pmihp/internal/apriori"
	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/countdist"
	"pmihp/internal/dhp"
	"pmihp/internal/fpgrowth"
	"pmihp/internal/mining"
	"pmihp/internal/text"
)

func main() {
	docs := corpus.MustGenerate(corpus.CorpusA(corpus.Small))
	db, _ := text.ToDB(docs, nil)
	st := db.ComputeStats()
	fmt.Printf("corpus: %d docs, %d distinct words\n\n", st.Docs, st.UniqueItems)

	for _, minsup := range []float64{0.08, 0.05, 0.03} {
		opts := mining.Options{MinSupFrac: minsup, MaxK: 4}
		fmt.Printf("minsup %.1f%% (count %d):\n", minsup*100, opts.MinCount(db.Len()))

		type entry struct {
			name string
			run  func() (*mining.Result, error)
		}
		seq := []entry{
			{"apriori", func() (*mining.Result, error) { return apriori.Mine(db, opts) }},
			{"dhp", func() (*mining.Result, error) { return dhp.Mine(db, opts) }},
			{"fpgrowth", func() (*mining.Result, error) { return fpgrowth.Mine(db, opts) }},
			{"mihp", func() (*mining.Result, error) { return core.MineMIHP(db, opts) }},
			{"cd(4)", func() (*mining.Result, error) {
				r, err := countdist.Mine(db, countdist.Config{Nodes: 4}, opts)
				if r == nil {
					return nil, err
				}
				return r.Result, err
			}},
			{"pmihp(4)", func() (*mining.Result, error) {
				r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 4}, opts)
				if r == nil {
					return nil, err
				}
				return r.Result, err
			}},
		}

		var reference *mining.Result
		for _, e := range seq {
			r, err := e.run()
			if errors.Is(err, mining.ErrMemoryExceeded) {
				fmt.Printf("  %-9s OOM\n", e.name)
				continue
			}
			if err != nil {
				log.Fatalf("%s: %v", e.name, err)
			}
			status := ""
			if reference == nil {
				reference = r
				status = "(reference)"
			} else if ok, diff := mining.SameFrequentSets(reference, r); !ok {
				status = "MISMATCH: " + diff
			} else {
				status = "identical frequent sets"
			}
			fmt.Printf("  %-9s %8.1fs simulated, %7d candidates, %6d frequent  %s\n",
				e.name, r.Metrics.Work.Seconds(), r.Metrics.Candidates(), len(r.Frequent), status)
		}
		fmt.Println()
	}
}
