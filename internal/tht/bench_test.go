package tht

import (
	"testing"

	"pmihp/internal/itemset"
)

func benchLocal(b *testing.B, entries int, masks bool) *Local {
	b.Helper()
	db := makeDB(1, 400, 2000, 60)
	l, _ := BuildLocal(db, entries)
	if masks {
		l.BuildMasks()
	}
	return l
}

func BenchmarkPairBoundMasked(b *testing.B)   { benchPairScan(b, true) }
func BenchmarkPairBoundMaskless(b *testing.B) { benchPairScan(b, false) }

// benchPairScan measures pass 2's pair-bound kernel on one segment.
func benchPairScan(b *testing.B, masks bool) {
	l := benchLocal(b, 400, masks)
	ps := NewGlobal([]*Local{l}).NewPairScan(identityUniverse(2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := i%2000, (i*7+1)%2000
		if a != c {
			ps.Hoist(a)
			ps.BoundReaches(c, 2)
		}
	}
}

func BenchmarkTripleBoundMasked(b *testing.B) {
	l := benchLocal(b, 400, true)
	x := make(itemset.Itemset, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x[:0]
		x = append(x, itemset.Item(i%1900), itemset.Item(i%1900+50), itemset.Item(i%1900+90))
		l.BoundReaches(x, 2)
	}
}

func BenchmarkBuildLocal(b *testing.B) {
	db := makeDB(1, 400, 2000, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildLocal(db, 400)
	}
}

// BenchmarkPollPeers measures the batch peer-classification kernel behind
// PMIHP's flush: one PollPeers call versus a BoundReaches(x, 1) per peer
// with per-call row fetches.
func BenchmarkPollPeers(b *testing.B) {
	locals := make([]*Local, 8)
	for s := range locals {
		l, _ := BuildLocal(makeDB(int64(s+1), 50, 2000, 60), 50)
		l.BuildMasks()
		locals[s] = l
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
