package experiments

import (
	"fmt"

	"pmihp/internal/cluster"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
)

func init() {
	register("a10", "Ablation: collective topology for the THT exchange (why the paper's n-cube)", func(p Params) (fmt.Stringer, error) {
		return RunA10(p)
	})
}

// RunA10 models the THT all-gather of PMIHP's setup phase — the largest
// single transfer of the algorithm — under the paper's binary n-cube and
// two naive alternatives, across node counts. The per-node payload is the
// actual retained-THT size measured on Corpus B.
func RunA10(p Params) (fmt.Stringer, error) {
	p = p.WithDefaults()
	b, err := buildCorpus(corpus.CorpusB(p.Scale))
	if err != nil {
		return nil, err
	}
	out := &kvResult{
		title: "Ablation A10 — THT exchange time by collective topology (Corpus B, minsup count 2)",
		note:  "expected shape: hypercube <= ring <= star, the gap widening with node count",
		t:     &table{header: []string{"nodes", "THT bytes/node", "hypercube (s)", "ring (s)", "star (s)"}},
	}
	for _, n := range p.Nodes {
		if n < 2 {
			continue
		}
		// Measure the real per-node THT payload: local tables over the
		// node's slice, holding the globally frequent items' rows.
		parts := b.db.SplitChronological(n)
		keep, _ := mining.FrequentItems(b.db.ItemCounts(), 2)
		entries := 400 / n
		if entries < 4 {
			entries = 4
		}
		maxBytes := int64(0)
		for _, part := range parts {
			local := tht.Build(part, entries, part.ItemCounts(), keep)
			if bs := int64(local.Bytes()); bs > maxBytes {
				maxBytes = bs
			}
		}
		row := []string{count(n), fmt.Sprintf("%d", maxBytes)}
		for _, topo := range []cluster.Topology{cluster.Hypercube, cluster.Ring, cluster.Star} {
			row = append(row, secs(cluster.AllGatherTime(topo, n, maxBytes, cluster.FastEthernet)))
		}
		out.t.add(row...)
	}
	return out, nil
}
