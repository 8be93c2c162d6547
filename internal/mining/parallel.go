package mining

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Intra-node shared-memory parallelism. Each simulated cluster node may
// shard its counting scans over a bounded pool of OS-level workers (the
// many-core direction of Zymbler's FIM work). RunShards is a chunk-queue
// work-stealing scheduler: the index range [0, n) is cut into fixed-size
// chunks and worker goroutines pull the next chunk off an atomic cursor
// until the queue drains, so a worker that finishes early keeps pulling
// instead of idling behind a skew-heavy range. Chunk boundaries depend
// only on (n, workers) and every per-worker merge is either an
// order-independent integer sum or a segment list re-ordered by range
// start, so results and simulated-clock charges are identical for every
// worker count — the knob changes wall-clock time only.

// ResolveWorkers normalizes an IntraNodeWorkers setting: values <= 0 select
// GOMAXPROCS.
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// chunksPerWorker sets the queue depth of the dynamic scheduler: enough
// chunks per worker that a straggling range redistributes, few enough that
// the per-chunk atomic fetch is noise against a counting scan.
const chunksPerWorker = 8

// chunkPlan computes the dynamic schedule for [0, n) under a worker bound:
// the fixed chunk size, the chunk count, and the number of worker slots
// (goroutines, hence per-slot scratch states) that will run. All three are
// pure functions of (n, workers).
func chunkPlan(n, workers int) (size, chunks, slots int) {
	if workers < 1 {
		workers = 1
	}
	if n <= 0 {
		return 1, 0, 1
	}
	size = n / (workers * chunksPerWorker)
	if size < 1 {
		size = 1
	}
	chunks = (n + size - 1) / size
	slots = workers
	if slots > chunks {
		slots = chunks
	}
	return size, chunks, slots
}

// NumShards returns the number of worker slots RunShards will use for n
// items and the given worker bound, so callers can pre-allocate per-slot
// scratch. It equals min(workers, n) for n > 0.
func NumShards(n, workers int) int {
	_, _, slots := chunkPlan(n, workers)
	return slots
}

// RunShards executes fn over [0, n) on a pool of worker goroutines pulling
// fixed-size chunks from an atomic cursor: fn(worker, lo, hi) may run many
// times per worker, once per chunk claimed, always with 0 <= worker <
// NumShards(n, workers). A single slot runs fn(0, 0, n) inline on the
// calling goroutine, reproducing the serial kernels exactly.
//
// Callers accumulate into per-worker scratch (reset before the call, merged
// after) — chunk-to-worker assignment is racy, so per-worker results must
// be order-independent sums, or per-chunk segments tagged with their range
// start and re-ordered during the merge (see the pass-2 generation).
// It returns the number of worker slots used.
func RunShards(n, workers int, fn func(worker, lo, hi int)) int {
	size, chunks, slots := chunkPlan(n, workers)
	if slots <= 1 || chunks <= 1 {
		fn(0, 0, n)
		return 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(slots)
	for w := 0; w < slots; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				k := int(cursor.Add(1)) - 1
				if k >= chunks {
					return
				}
				lo := k * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
	return slots
}
