package tht

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/txdb"
)

// shardedBuild is the pass-1 build that Build replaced, kept as the
// reference Build is checked against: each of up to workers contiguous
// transaction ranges fills a private table with a row for every item it
// holds, and the shard tables merge by entrywise summation into a table
// with a row for every item that occurs.
func shardedBuild(db *txdb.DB, entries, workers int) *Local {
	n := db.Len()
	numItems := db.NumItems()
	items, offsets, tids := db.CSR()
	build := func(lo, hi int) (*Local, []int) {
		counts := make([]int, numItems)
		for _, it := range items[offsets[lo]:offsets[hi]] {
			counts[it]++
		}
		l := sizedFromCounts(entries, counts)
		for i := lo; i < hi; i++ {
			j := l.hash(tids[i])
			for _, it := range items[offsets[i]:offsets[i+1]] {
				l.data[int(l.rowIdx[it])*entries+j]++
			}
		}
		return l, counts
	}
	shards := max(1, min(workers, n))
	if shards == 1 {
		l, _ := build(0, n)
		return l
	}
	locals := make([]*Local, shards)
	countsByShard := make([][]int, shards)
	for s := range locals {
		locals[s], countsByShard[s] = build(s*n/shards, (s+1)*n/shards)
	}
	counts := countsByShard[0]
	for s := 1; s < shards; s++ {
		for it, c := range countsByShard[s] {
			counts[it] += c
		}
	}
	merged := sizedFromCounts(entries, counts)
	for _, o := range locals {
		for r, it := range o.rowItem {
			src := o.data[r*entries : (r+1)*entries]
			dr := int(merged.rowIdx[it])
			dst := merged.data[dr*entries : (dr+1)*entries]
			for j, c := range src {
				dst[j] += c
			}
		}
	}
	return merged
}

// sizedFromCounts returns a zeroed table with a row for every item of
// positive count, rows in item order.
func sizedFromCounts(entries int, counts []int) *Local {
	l := newLocal(entries, len(counts))
	for it, c := range counts {
		if c > 0 {
			l.rowIdx[it] = int32(len(l.rowItem))
			l.rowItem = append(l.rowItem, itemset.Item(it))
		}
	}
	l.data = make([]uint32, len(l.rowItem)*entries)
	return l
}

// shardedRetain is the post-pass-1 compaction that went with
// shardedBuild: drop the rows keep rejects, compact the rest to the
// front of the matrix, and build the masks of the rows kept.
func shardedRetain(l *Local, keep []bool) {
	h := l.entries
	next := 0
	for r, it := range l.rowItem {
		if !keep[it] {
			l.rowIdx[it] = -1
			continue
		}
		if next != r {
			copy(l.data[next*h:(next+1)*h], l.data[r*h:(r+1)*h])
			l.rowIdx[it] = int32(next)
			l.rowItem[next] = it
		}
		next++
	}
	l.rowItem = l.rowItem[:next]
	l.data = l.data[:next*h]
	l.BuildMasks()
}

// dayDB returns up to 60 random transactions over items below 3/4 of
// vocab, so the top quarter of the vocabulary never occurs. Days ascend,
// a few transactions per day, and TIDs count from 0.
func dayDB(rng *rand.Rand, vocab int) []txdb.Transaction {
	txs := make([]txdb.Transaction, rng.Intn(61))
	day := 0
	for i := range txs {
		if rng.Intn(3) == 0 {
			day++
		}
		raw := make([]uint32, 1+rng.Intn(8))
		for j := range raw {
			raw[j] = uint32(rng.Intn(vocab * 3 / 4))
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Day: day, Items: itemset.New(raw...)}
	}
	return txs
}

// TestBuildMatchesShardedRetain: Build's table equals what the sharded
// build followed by the post-pass-1 compaction produced, in every field
// and in its wire form. The sweep covers widths 1–130 (one to three mask
// words), 1–4 shards of the reference, whole databases, chronological
// split views and AppendDB.SinceDay windows (whose TIDs do not start at
// 0), and keep sets that name items the database does not hold: those
// must get no row.
func TestBuildMatchesShardedRetain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	absentKept := 0
	for entries := 1; entries <= 130; entries++ {
		vocab := 8 + rng.Intn(90)
		db := txdb.New(dayDB(rng, vocab), vocab)
		views := append([]*txdb.DB{db}, db.SplitChronological(1+rng.Intn(4))...)
		a := txdb.NewAppendAt(vocab, txdb.TID(rng.Intn(1000)))
		if err := a.Append(dayDB(rng, vocab)); err != nil {
			t.Fatal(err)
		}
		views = append(views, a.SinceDay(rng.Intn(4)))
		for v, view := range views {
			keep := make([]bool, vocab)
			for it := range keep {
				keep[it] = rng.Intn(3) > 0
			}
			counts := view.ItemCounts()
			for it, k := range keep {
				if k && counts[it] == 0 {
					absentKept++
				}
			}
			got := Build(view, entries, counts, keep)
			want := shardedBuild(view, entries, 1+rng.Intn(4))
			shardedRetain(want, keep)
			if err := sameTable(got, want); err != "" {
				t.Fatalf("entries=%d view=%d (%d transactions): %s", entries, v, view.Len(), err)
			}
			requireMasks(t, got)
		}
	}
	if absentKept == 0 {
		t.Fatal("no keep set named an item its database does not hold")
	}
}

// sameTable describes the first field in which two tables differ, or
// returns "" when they are equal in every field and in their wire form.
func sameTable(got, want *Local) string {
	switch {
	case got.entries != want.entries || got.mw != want.mw || got.fast1 != want.fast1:
		return "geometry differs"
	case !slices.Equal(got.rowIdx, want.rowIdx):
		return "row index differs"
	case !slices.Equal(got.rowItem, want.rowItem):
		return "row items differ"
	case !slices.Equal(got.data, want.data):
		return "counters differ"
	case !slices.Equal(got.maskData, want.maskData):
		return "masks differ"
	case !slices.Equal(got.occ, want.occ):
		return "occupancy differs"
	case got.Bytes() != want.Bytes() || got.MemBytes() != want.MemBytes():
		return "sizes differ"
	case !bytes.Equal(got.AppendWire(nil), want.AppendWire(nil)):
		return "wire form differs"
	}
	return ""
}
