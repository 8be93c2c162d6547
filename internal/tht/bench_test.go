package tht

import (
	"testing"

	"pmihp/internal/itemset"
)

func benchLocal(b *testing.B, entries int) *Local {
	b.Helper()
	return retained(makeDB(1, 400, 2000, 60), entries)
}

// BenchmarkPairBound measures pass 2's cascaded pair probe on one
// segment.
func BenchmarkPairBound(b *testing.B) {
	l := benchLocal(b, 400)
	pg := NewGlobal([]*Local{l}).NewPairGen(0, 2, 2)
	n := len(pg.items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := i%n, (i*7+1)%n
		if a != c {
			pg.cascadeReaches(a, c, 2)
		}
	}
}

func BenchmarkTripleBound(b *testing.B) {
	l := benchLocal(b, 400)
	x := make(itemset.Itemset, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x[:0]
		x = append(x, itemset.Item(i%1900), itemset.Item(i%1900+50), itemset.Item(i%1900+90))
		l.BoundReaches(x, 2)
	}
}

// buildSink keeps BenchmarkBuild's result live.
var buildSink *Local

// BenchmarkBuild measures pass 1's THT fill: the rows of the items that
// occur in at least 16 of the 400 transactions.
func BenchmarkBuild(b *testing.B) {
	db := makeDB(1, 400, 2000, 60)
	counts := db.ItemCounts()
	keep := make([]bool, len(counts))
	for it, c := range counts {
		keep[it] = c >= 16
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = Build(db, 400, counts, keep)
	}
}

// BenchmarkPollPeers measures the batch peer-classification kernel behind
// PMIHP's flush: one PollPeers call classifies an itemset against every
// peer segment.
func BenchmarkPollPeers(b *testing.B) {
	locals := make([]*Local, 8)
	for s := range locals {
		locals[s] = retained(makeDB(int64(s+1), 50, 2000, 60), 50)
	}
	g := NewGlobal(locals)
	x := itemset.New(3, 11, 42)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peers, _ := g.PollPeers(x, 0, buf)
		buf = peers
	}
}
