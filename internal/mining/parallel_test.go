package mining

import (
	"sort"
	"sync"
	"testing"
)

// TestRunShardsTilesRange checks the chunk-queue invariants the merge
// discipline depends on: every claimed chunk lies in [0, n), chunks tile
// the range exactly (no gap, no overlap), worker indices stay below
// NumShards, and the chunk boundaries depend only on (n, workers).
func TestRunShardsTilesRange(t *testing.T) {
	type span struct{ lo, hi int }
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
		for _, workers := range []int{1, 2, 3, 8, 64, 1000} {
			slots := NumShards(n, workers)
			var mu sync.Mutex
			var spans []span
			maxWorker := 0
			got := RunShards(n, workers, func(w, lo, hi int) {
				mu.Lock()
				spans = append(spans, span{lo, hi})
				if w > maxWorker {
					maxWorker = w
				}
				mu.Unlock()
			})
			if got != slots {
				t.Fatalf("n=%d workers=%d: RunShards used %d slots, NumShards says %d", n, workers, got, slots)
			}
			if maxWorker >= slots {
				t.Fatalf("n=%d workers=%d: worker index %d >= slots %d", n, workers, maxWorker, slots)
			}
			sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
			at := 0
			for _, sp := range spans {
				if sp.lo != at {
					t.Fatalf("n=%d workers=%d: chunk starts at %d, want %d (gap or overlap)", n, workers, sp.lo, at)
				}
				if sp.hi < sp.lo || sp.hi > n {
					t.Fatalf("n=%d workers=%d: bad chunk [%d,%d)", n, workers, sp.lo, sp.hi)
				}
				at = sp.hi
			}
			if at != n {
				t.Fatalf("n=%d workers=%d: chunks cover [0,%d), want [0,%d)", n, workers, at, n)
			}
		}
	}
}

// TestRunShardsSumDeterministic pins the scheduler's core guarantee: a
// per-worker sum reduction merged over the slots equals the serial result
// for every worker count.
func TestRunShardsSumDeterministic(t *testing.T) {
	const n = 5000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i*i%97 + 1)
	}
	var want int64
	for _, v := range vals {
		want += v
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 19} {
		partial := make([]int64, NumShards(n, workers))
		RunShards(n, workers, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				partial[w] += vals[i]
			}
		})
		var got int64
		for _, p := range partial {
			got += p
		}
		if got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
		}
	}
}

// TestNumShardsSlotBound documents the scratch-sizing contract: the slot
// count never exceeds the worker bound or the item count (for n > 0), so
// scratch allocated per slot is bounded by the smaller of the two.
func TestNumShardsSlotBound(t *testing.T) {
	for _, n := range []int{1, 3, 50, 10000} {
		for _, workers := range []int{1, 4, 77} {
			s := NumShards(n, workers)
			want := workers
			if n < want {
				want = n
			}
			if s != want {
				t.Fatalf("NumShards(%d,%d) = %d, want min %d", n, workers, s, want)
			}
		}
	}
}
