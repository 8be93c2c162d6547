package core

import (
	"math"
	"math/rand"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
)

// denseThresholdAll forces the all-bitmap layout: a threshold so small
// that every non-empty posting list reaches the cutoff (0 is reserved for
// the default).
const denseThresholdAll = 1e-300

// TestDenseCutoffSemantics pins the threshold resolution rules: 0 selects
// the default, anything above 1 (and +Inf) disables bitmaps (cutoff beyond
// every possible df), denseThresholdAll forces them (cutoff 1), and the
// cutoff never drops below one occurrence.
func TestDenseCutoffSemantics(t *testing.T) {
	const span = 1000
	if got, want := denseCutoff(0, span), denseCutoff(defaultDenseThreshold, span); got != want {
		t.Fatalf("zero threshold resolved to cutoff %d, default gives %d", got, want)
	}
	if got := denseCutoff(defaultDenseThreshold, span); got != 63 { // ceil(1000/16)
		t.Fatalf("default cutoff over span %d = %d, want 63", span, got)
	}
	for _, th := range []float64{1.5, 2, math.Inf(1)} {
		if got := denseCutoff(th, span); got != span+1 {
			t.Fatalf("threshold %v: cutoff %d, want %d (no list qualifies)", th, got, span+1)
		}
	}
	if got := denseCutoff(denseThresholdAll, span); got != 1 {
		t.Fatalf("denseThresholdAll: cutoff %d, want 1 (every list qualifies)", got)
	}
	if got := denseCutoff(0.5, 1); got != 1 {
		t.Fatalf("tiny span: cutoff %d, want clamp to 1", got)
	}
	if got := denseCutoff(1, span); got != span {
		t.Fatalf("threshold 1: cutoff %d, want %d", got, span)
	}
}

// TestPollCounterLayoutsAndWorkers: the posting layout and the batch
// worker count change wall time only. Under every layout (all-compressed,
// default, all-bitmap) and at 1, 2, 4 and 8 workers, a poll counter must
// return exact supports, charge the same build-plus-batch work units, and,
// within a layout, hold the same peak bytes at every worker count.
func TestPollCounterLayoutsAndWorkers(t *testing.T) {
	db := smallDB(t, corpus.CorpusB(corpus.Small))

	// Half the sets are drawn from one transaction, so they have support;
	// the other half get one random item, so most of them are empty.
	rng := rand.New(rand.NewSource(17))
	sets := make([]itemset.Itemset, 400)
	want := make([]int, len(sets))
	for i := range sets {
		items := db.ItemsOf(rng.Intn(db.Len()))
		var raw []uint32
		for j := 0; j < 1+rng.Intn(3) && len(items) > 0; j++ {
			raw = append(raw, items[rng.Intn(len(items))])
		}
		if i%2 == 1 || len(raw) == 0 {
			raw = append(raw, uint32(rng.Intn(db.NumItems())))
		}
		sets[i] = itemset.New(raw...)
		want[i] = mining.CountSupport(db, sets[i])
	}

	var refUnits int64
	for li, tc := range []struct {
		name      string
		threshold float64
	}{
		{"compressed", math.Inf(1)},
		{"default", 0},
		{"bitmap", denseThresholdAll},
	} {
		var held1 int64
		for _, workers := range []int{1, 2, 4, 8} {
			m := mining.NewMetrics("poll")
			got := NewPollCounter(db, workers, tc.threshold).CountBatch(sets, &m)
			for i, c := range got {
				if int(c) != want[i] {
					t.Fatalf("%s/workers=%d: count(%v) = %d, want %d", tc.name, workers, sets[i], c, want[i])
				}
			}
			if li == 0 && workers == 1 {
				refUnits = m.Work.Units
			} else if m.Work.Units != refUnits {
				t.Fatalf("%s/workers=%d: charged %d work units, compressed single-worker run %d",
					tc.name, workers, m.Work.Units, refUnits)
			}
			if workers == 1 {
				held1 = m.PeakHeldBytes
			} else if m.PeakHeldBytes != held1 {
				t.Fatalf("%s/workers=%d: peak held %d bytes, single-worker run held %d",
					tc.name, workers, m.PeakHeldBytes, held1)
			}
		}
	}
}
