package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"pmihp/internal/hashtree"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// localMiner runs the MIHP partition passes over one (local) database. The
// sequential algorithm uses it with a single-segment THT cascade and equal
// local/global thresholds; each PMIHP node uses it with the full cascade,
// its node-local threshold, and an emit hook that classifies locally
// frequent itemsets (section 2.4 step 5).
//
// The counting kernels are allocation-free on their hot paths: candidate
// pairs live in a flat open-addressing table, per-transaction filtered
// item lists in a reusable arena, and trimming compacts item lists in
// place. Counting scans shard their transaction range across
// Options.IntraNodeWorkers OS-level workers with per-shard count arrays
// merged in shard order, so results and simulated-clock charges are
// identical for every worker count.
type localMiner struct {
	db   *txdb.DB
	opts mining.Options

	// minLocal is the frequency threshold on the local database; minPrune is
	// the threshold the cascaded (global) THT bound must reach for a
	// candidate to stay viable. Sequentially the two coincide.
	minLocal int
	minPrune int

	global *tht.Global // cascaded THT view; segment self is this node's own
	self   int

	// pairs decides pass 2's pairs once per run over the node's locally
	// present frequent items — the rows of its own segment, the only
	// possible pass-2 partners — addressed by their ascending position
	// (present index).
	pairs *tht.PairGen

	freqItems  []itemset.Item   // globally frequent items, ascending
	freqArr    []bool           // indexed by item: globally frequent? (the caller's F1 membership)
	partitions [][]itemset.Item // Partition(freqItems, opts.PartitionSize)

	metrics *mining.Metrics

	// curPart is the partition index currently being mined, stamped on the
	// observability pass events (opts.Obs).
	curPart int

	// emit receives every locally frequent k-itemset (k >= 2) with its local
	// support count.
	emit func(set itemset.Itemset, count int)

	// onPass, when non-nil, is called after every counting pass (a PMIHP
	// node flushes accumulated global-candidate batches there); returning
	// false halts the mining.
	onPass func() bool
	halted bool

	// notePair, when non-nil, receives the packed key of every candidate
	// 2-itemset this miner counts (the E9 experiment measures how many
	// candidates are counted at more than one node).
	notePair func(key uint64)

	// accum2 holds every locally frequent 2-itemset found so far across
	// partitions, packed for the specialized k=3 join. nil when MaxK < 3
	// makes the join unreachable.
	accum2 *mining.PairTable

	// workers is the resolved intra-node worker bound; shards holds one
	// scratch state per worker, reused across passes; genShards is the
	// pass-2 generation scratch (pair scratch and private key lists), grown
	// on demand because generation shards over present items, not
	// transactions.
	workers   int
	shards    []*minerShard
	genShards []*genShard
	genSegs   []genSeg

	// Reusable pass-2 state: the candidate pair table, its key list and
	// count array.
	pairTab *mining.PairTable
	keys    []uint64
	counts2 []int32

	// work is the single CSR working copy reused across partitions: each
	// partition refills its arena with the filtered item lists (so filling
	// never allocates), and trimming compacts them in place; setArena backs
	// emitted 2-itemsets, which outlive the pass.
	work     *txdb.Work
	setArena mining.Arena
}

// minerShard is the per-worker scratch of a sharded counting scan: the
// transaction-trimming hit counters, a private candidate count array, the
// hash-tree visit state, and the work accumulators that merge — in shard
// order — into the miner's metrics after the shards join.
type minerShard struct {
	hits      []int32
	hitsEpoch []int32
	epoch     int32

	counts []int32
	visit  hashtree.VisitState

	scanned  int64
	treeWork int64
	hitsN    int64
	trimmed  int64
	prunedTx int64
}

// genShard is the per-worker scratch of the sharded pass-2 candidate
// generation: the worker's pair scratch, the candidate keys of every chunk
// this worker claimed, and its work tallies. Key order within one worker
// follows claim order, which is racy — so each chunk's keys are recorded
// as a segment tagged with the chunk's range start, and the merge
// re-orders segments by range start. Chunks tile the partition's present
// items, so the ordered concatenation — and with it every downstream
// count, charge, and emitted set — is identical to the serial generation.
type genShard struct {
	scratch         *tht.PairScratch
	keys            []uint64
	segs            []keySeg
	pairsConsidered int64
	slotsTotal      int64
	prunedTHT       int64
}

// keySeg is one chunk's slice of a genShard's key list: keys[start:end]
// were generated for the present-item range starting at lo.
type keySeg struct {
	lo         int
	start, end int
}

// genSeg is a merge-time reference to one chunk's keys, sortable by the
// chunk's range start.
type genSeg struct {
	lo   int
	keys []uint64
}

// reset readies the shard for a scan whose items are all below n.
func (sh *minerShard) reset(n int) {
	if len(sh.hits) < n {
		sh.hits = make([]int32, n)
		sh.hitsEpoch = make([]int32, n)
	}
	sh.scanned, sh.treeWork, sh.hitsN, sh.trimmed, sh.prunedTx = 0, 0, 0, 0, 0
}

// countsFor returns the shard's private count array, zeroed, with n slots.
func (sh *minerShard) countsFor(n int) []int32 {
	if cap(sh.counts) < n {
		sh.counts = make([]int32, n)
	} else {
		sh.counts = sh.counts[:n]
		clear(sh.counts)
	}
	return sh.counts
}

// run executes all partition passes.
func (lm *localMiner) run() {
	lm.pairs = lm.global.NewPairGen(lm.self, lm.minLocal, lm.minPrune)
	if lm.opts.MaxK == 0 || lm.opts.MaxK >= 3 {
		lm.accum2 = mining.NewPairTable(0)
	}
	lm.pairTab = mining.NewPairTable(0)

	lm.workers = lm.opts.Workers()
	lm.shards = make([]*minerShard, mining.NumShards(lm.db.Len(), lm.workers))
	for i := range lm.shards {
		lm.shards[i] = &minerShard{}
	}

	lm.work = txdb.NewWork(lm.db)
	lm.metrics.NoteHeldBytes(lm.db.MemBytes() +
		lm.global.Segment(lm.self).MemBytes() + lm.work.MemBytes())

	// Accumulated locally frequent itemsets per size, across partitions
	// (F_k in the pseudo-code, initialized once and extended per partition).
	accum := make(map[int]*itemset.Set)

	for m := len(lm.partitions) - 1; m >= 0 && !lm.halted; m-- {
		lm.curPart = m
		lm.minePartition(lm.partitions[m], accum)
	}
}

// itemRange is one past the largest frequent item. The working database
// holds frequent items only, so the trimming hit counters need no more.
func (lm *localMiner) itemRange() int { return int(lm.freqItems[len(lm.freqItems)-1]) + 1 }

// passProbe snapshots the miner's metrics at the start of one counting
// pass (candidate generation through scan) so the pass's observability
// event can report deltas. The zero probe — returned when observability
// is disabled — makes every method a no-op: no clock reads, no event
// construction, no allocations on the counting path.
type passProbe struct {
	rec                                     *obs.Recorder
	prunedTHT, prunedSub, trimmed, prunedTx int64
	genT0, scanT0                           time.Time
	genSeconds, scanSeconds                 float64
}

// beginPass opens a probe at the start of a pass's candidate generation.
func (lm *localMiner) beginPass() passProbe {
	r := lm.opts.Obs
	if !r.Enabled() {
		return passProbe{}
	}
	m := lm.metrics
	return passProbe{
		rec:       r,
		prunedTHT: m.PrunedByTHT,
		prunedSub: m.PrunedBySubset,
		trimmed:   m.TrimmedItems,
		prunedTx:  m.PrunedTx,
		genT0:     time.Now(),
	}
}

// startScan closes the pass's generation time and opens its scan time.
func (p *passProbe) startScan() {
	if p.rec.Enabled() {
		p.scanT0 = time.Now()
		p.genSeconds = p.scanT0.Sub(p.genT0).Seconds()
	}
}

func (p *passProbe) endScan() {
	if p.rec.Enabled() {
		p.scanSeconds = time.Since(p.scanT0).Seconds()
	}
}

// endPass emits the pass event. Only executed passes emit: a generation
// whose candidates all prune away never scans, and its (rare) pruning
// deltas stay out of the trace just as they stay out of Metrics.Passes.
func (lm *localMiner) endPass(p *passProbe, k, candidates int) {
	if !p.rec.Enabled() {
		return
	}
	m := lm.metrics
	p.rec.Pass(obs.PassEvent{
		Node:         lm.self,
		Partition:    lm.curPart,
		K:            k,
		Candidates:   candidates,
		PrunedTHT:    m.PrunedByTHT - p.prunedTHT,
		PrunedSubset: m.PrunedBySubset - p.prunedSub,
		TrimmedItems: m.TrimmedItems - p.trimmed,
		PrunedTx:     m.PrunedTx - p.prunedTx,
		GenSeconds:   p.genSeconds,
		ScanSeconds:  p.scanSeconds,
	})
}

// minePartition discovers every locally frequent itemset whose minimum item
// lies in part (the items of partition P_m), extending into the previously
// processed higher partitions via the accumulated frequent sets.
func (lm *localMiner) minePartition(part []itemset.Item, accum map[int]*itemset.Set) {
	work := lm.partitionWork(part[0])
	prevM := lm.pass2(part, work, accum)

	for k := 3; !lm.halted && len(prevM) >= 1 && (lm.opts.MaxK == 0 || k <= lm.opts.MaxK); k++ {
		probe := lm.beginPass()
		var cands []itemset.Itemset
		var potential, prunedSub int
		if k == 3 {
			// Specialized join over packed pair keys; accum2 spans all
			// partitions processed so far, as line 24's subset check needs.
			cands, potential, prunedSub = mining.Gen3(prevM, lm.accum2)
		} else {
			cands, potential, prunedSub = mining.AprioriGen(prevM, accum[k-1])
		}
		lm.metrics.Work.Charge(int64(potential), mining.CostCandidateGen)
		lm.metrics.PrunedBySubset += int64(prunedSub)

		// IHP pruning (lines 27-29): drop candidates whose THT bound shows
		// they cannot reach the pruning threshold.
		kept := cands[:0]
		for _, c := range cands {
			ok := lm.boundViable(c)
			if ok {
				kept = append(kept, c)
			} else {
				lm.metrics.PrunedByTHT++
			}
		}
		cands = kept
		if len(cands) == 0 {
			break
		}

		lm.metrics.AddCandidates(k, len(cands))
		lm.metrics.NoteCandidateBytes(mining.CandidateBytes(k, len(cands)))

		tree := hashtree.Build(k, cands)
		lm.metrics.Work.Charge(int64(len(cands)), mining.CostTreeInsert)
		probe.startScan()
		lm.countPassTree(tree, work, k)
		probe.endScan()
		lm.metrics.Work.Charge(tree.WalkCost(), 1)

		prevM = prevM[:0]
		// Extending the accumulated F_k is only useful while a later pass
		// can read it: candidate generation for k+1 consults accum[k].
		extend := lm.opts.MaxK == 0 || k < lm.opts.MaxK
		var acc *itemset.Set
		if extend {
			acc = lm.accumFor(accum, k)
		}
		for i := 0; i < tree.Len(); i++ {
			if c := tree.Count(i); c >= lm.minLocal {
				set := tree.Candidate(i)
				lm.emit(set, c)
				if extend {
					acc.Add(set)
				}
				prevM = append(prevM, set)
			}
		}
		itemset.Sort(prevM)
		lm.endPass(&probe, k, len(cands))
		lm.afterPass()
	}
}

// afterPass runs the onPass hook, halting the mining when it says so.
func (lm *localMiner) afterPass() {
	if lm.onPass != nil && !lm.onPass() {
		lm.halted = true
	}
}

// partitionWork refills the working database for one partition:
// transactions restricted to globally frequent items at or above the
// partition's first item (items below the current partition belong to lower
// partitions and cannot occur in this partition's candidates; section 2.1).
// The filtering read is the pass-2 scan cost over the full transactions.
// Filtered item lists stream straight from the database's CSR backing into
// the Work's arena; trimming later compacts them in place, so a partition's
// passes allocate no per-transaction lists at all.
func (lm *localMiner) partitionWork(first itemset.Item) *txdb.Work {
	scanned := lm.work.ResetFiltered(first, lm.freqArr, 2)
	lm.metrics.Work.Charge(scanned, mining.CostScanItem)
	return lm.work
}

// pass2 generates, prunes, and counts the candidate 2-itemsets of the
// partition: pairs whose first item is in part and whose second is any
// larger frequent item. It returns the locally frequent 2-itemsets of the
// partition in lexicographic order.
func (lm *localMiner) pass2(part []itemset.Item, work *txdb.Work, accum map[int]*itemset.Set) []itemset.Itemset {
	probe := lm.beginPass()
	// The working database holds only frequent items at or above part[0],
	// so an item is in the partition exactly when it is below end.
	end := part[len(part)-1] + 1
	// Candidate generation with IHP pair pruning (genOuter) over the
	// partition's locally present items, present[lo:hi]: a locally absent
	// item forms no countable pair. The outer-item loop runs on the
	// chunk-queue scheduler — each worker records each chunk's keys as a
	// segment, and the merge re-orders segments by range start, so the key
	// sequence (and every tally, being a sum) is the serial one.
	present := lm.pairs.Items()
	lo, _ := slices.BinarySearch(present, part[0])
	hi, _ := slices.BinarySearch(present, end)
	lm.pairTab.Reset()
	cands := lm.pairTab // pair key -> candidate index
	nGen := mining.NumShards(hi-lo, lm.workers)
	for len(lm.genShards) < nGen {
		lm.genShards = append(lm.genShards, &genShard{scratch: lm.pairs.NewScratch()})
	}
	for s := 0; s < nGen; s++ {
		g := lm.genShards[s]
		g.keys = g.keys[:0]
		g.segs = g.segs[:0]
		g.pairsConsidered, g.slotsTotal, g.prunedTHT = 0, 0, 0
	}
	mining.RunShards(hi-lo, lm.workers, func(s, glo, ghi int) {
		g := lm.genShards[s]
		segStart := len(g.keys)
		for i := lo + glo; i < lo+ghi; i++ {
			lm.genOuter(g, i)
		}
		g.segs = append(g.segs, keySeg{lo: glo, start: segStart, end: len(g.keys)})
	})
	segs := lm.genSegs[:0]
	pairsConsidered := int64(0)
	slotsTotal := int64(0)
	for s := 0; s < nGen; s++ {
		g := lm.genShards[s]
		for _, ks := range g.segs {
			segs = append(segs, genSeg{lo: ks.lo, keys: g.keys[ks.start:ks.end]})
		}
		pairsConsidered += g.pairsConsidered
		slotsTotal += g.slotsTotal
		lm.metrics.PrunedByTHT += g.prunedTHT
	}
	// Chunk range starts are unique and tile [0, hi-lo), so the sorted
	// concatenation is the serial key order.
	sort.Slice(segs, func(i, j int) bool { return segs[i].lo < segs[j].lo })
	lm.genSegs = segs
	keys := lm.keys[:0]
	for _, sg := range segs {
		keys = append(keys, sg.keys...)
	}
	for i, key := range keys {
		cands.Put(key, int32(i))
	}
	lm.metrics.Work.Charge(pairsConsidered, 1)
	lm.metrics.Work.Charge(slotsTotal, mining.CostTHTSlot)
	lm.metrics.AddCandidates(2, len(keys))
	lm.metrics.NoteCandidateBytes(mining.CandidateBytes(2, len(keys)))
	if lm.notePair != nil {
		for _, k := range keys {
			lm.notePair(k)
		}
	}

	var counts []int32
	if cap(lm.counts2) < len(keys) {
		lm.counts2 = make([]int32, len(keys))
	} else {
		lm.counts2 = lm.counts2[:len(keys)]
		clear(lm.counts2)
	}
	counts = lm.counts2
	probe.startScan()
	lm.countPass2(cands, counts, end, work)
	probe.endScan()

	var frequent []itemset.Itemset
	for i, key := range keys {
		if int(counts[i]) >= lm.minLocal {
			set := lm.pairSet(key)
			lm.emit(set, int(counts[i]))
			if lm.accum2 != nil {
				lm.accum2.AddPair(set[0], set[1])
			}
			frequent = append(frequent, set)
		}
	}
	lm.keys = keys
	itemset.Sort(frequent)
	lm.endPass(&probe, 2, len(keys))
	lm.afterPass()
	return frequent
}

// genOuter appends to g's keys the pass-2 candidates whose first item is
// the one at present index i, ascending by second item, and tallies the
// work of deciding them. The cost model prices the paper's loop: the
// self-segment bound of every locally present partner above it, then the
// cascaded bound of the pairs that pass it.
func (lm *localMiner) genOuter(g *genShard, i int) {
	partners, considered, slots, pruned := lm.pairs.Partners(g.scratch, i)
	g.pairsConsidered += considered
	g.slotsTotal += slots
	g.prunedTHT += pruned
	present := lm.pairs.Items()
	for _, b := range partners {
		g.keys = append(g.keys, mining.PairKey(present[i], present[b]))
	}
}

// countPass2 scans the working database once, counting candidate pairs and
// applying the weakened transaction trimming/pruning rule of section 2.3.
// The scan runs on the chunk-queue scheduler across the miner's worker
// pool; each worker accumulates into its private count array across every
// chunk it claims, and per-worker arrays and tallies merge by integer sums,
// so totals are identical to the serial scan at any worker count.
func (lm *localMiner) countPass2(cands *mining.PairTable, counts []int32, end itemset.Item, work *txdb.Work) {
	lm.metrics.Passes++
	trim := !lm.opts.DisableTrimming
	numItems := lm.itemRange()
	n := work.Len()
	nShards := mining.NumShards(n, lm.workers)
	view := work.View()
	// Per-worker scratch resets up front: under the chunk scheduler fn runs
	// once per claimed chunk, so it must only accumulate.
	for s := 0; s < nShards; s++ {
		sh := lm.shards[s]
		sh.reset(numItems)
		if nShards > 1 {
			sh.countsFor(len(counts))
		}
	}
	mining.RunShards(n, lm.workers, func(s, lo, hi int) {
		sh := lm.shards[s]
		cnt := counts
		if nShards > 1 {
			cnt = sh.counts
		}
		for ti := lo; ti < hi; ti++ {
			if !view.Active[ti] {
				continue
			}
			items := view.Items(ti)
			sh.scanned += int64(len(items))
			sh.epoch++
			matched := 0
			txPairs := 0
			// Items ascend, so the partition's items come first.
			for i := 0; i < len(items) && items[i] < end; i++ {
				for j := i + 1; j < len(items); j++ {
					txPairs++
					idx, ok := cands.Get(mining.PairKey(items[i], items[j]))
					if !ok {
						continue
					}
					cnt[idx]++
					sh.hitsN++
					matched++
					if trim {
						sh.bumpHit(items[i])
						sh.bumpHit(items[j])
					}
				}
			}
			// Charged as the equivalent hash-tree scan over this partition's
			// candidate pairs (see mining.Pass2TreeCharge); txPairs bounds the
			// distinct leaf paths this transaction can reach.
			flen := pairCountToFlen(txPairs)
			sh.treeWork += mining.Pass2TreeCharge(flen, cands.Len())
			if trim {
				sh.applyTrim(ti, items, end, matched, 2, work)
			}
		}
	})
	lm.mergeShards(nShards, counts, nil, work)
}

// countPassTree scans the working database with a hash tree for pass k >= 3,
// again applying the trimming rule, sharded like countPass2.
func (lm *localMiner) countPassTree(tree *hashtree.Tree, work *txdb.Work, k int) {
	lm.metrics.Passes++
	trim := !lm.opts.DisableTrimming
	numItems := lm.itemRange()
	n := work.Len()
	nShards := mining.NumShards(n, lm.workers)
	view := work.View()
	for s := 0; s < nShards; s++ {
		sh := lm.shards[s]
		sh.reset(numItems)
		sh.visit.Bind(tree)
		if nShards > 1 {
			sh.countsFor(tree.Len())
		}
	}
	treeCounts := tree.Counts()
	mining.RunShards(n, lm.workers, func(s, lo, hi int) {
		sh := lm.shards[s]
		var cnt []int32
		if nShards > 1 {
			cnt = sh.counts
		}
		for ti := lo; ti < hi; ti++ {
			if !view.Active[ti] {
				continue
			}
			items := view.Items(ti)
			sh.scanned += int64(len(items))
			sh.epoch++
			matched := 0
			tree.VisitTxState(items, &sh.visit, func(c int) {
				if cnt != nil {
					cnt[c]++
				} else {
					treeCounts[c]++
				}
				sh.hitsN++
				matched++
				if trim {
					for _, it := range tree.Candidate(c) {
						sh.bumpHit(it)
					}
				}
			})
			if trim {
				sh.applyTrim(ti, items, 0, matched, k, work)
			}
		}
	})
	walk := int64(0)
	for s := 0; s < nShards; s++ {
		sh := lm.shards[s]
		if nShards > 1 {
			tree.AddCounts(sh.counts)
		}
		walk += sh.visit.WalkCost()
	}
	tree.AddWalkCost(walk)
	lm.mergeShards(nShards, nil, tree, work)
}

// mergeShards folds the per-shard tallies into the miner's metrics and the
// working database, in shard order. counts is the pass-2 count array (nil
// for tree passes, whose counts merged via tree.AddCounts already).
func (lm *localMiner) mergeShards(nShards int, counts []int32, tree *hashtree.Tree, work *txdb.Work) {
	var scanned, treeWork, hitsN, trimmed, prunedTx int64
	for s := 0; s < nShards; s++ {
		sh := lm.shards[s]
		if counts != nil && nShards > 1 {
			for i, d := range sh.counts {
				counts[i] += d
			}
		}
		scanned += sh.scanned
		treeWork += sh.treeWork
		hitsN += sh.hitsN
		trimmed += sh.trimmed
		prunedTx += sh.prunedTx
	}
	lm.metrics.TrimmedItems += trimmed
	lm.metrics.PrunedTx += prunedTx
	lm.metrics.Work.Charge(scanned, mining.CostScanItem)
	lm.metrics.Work.Charge(treeWork, 1)
	lm.metrics.Work.Charge(hitsN, mining.CostCandidateHit)
}

// pairCountToFlen inverts n*(n-1)/2, recovering the effective frequent-item
// count Pass2TreeCharge expects from a pair count: the smallest n >= 2 with
// n*(n-1)/2 >= pairs, via the closed-form root of the quadratic with an
// integer fix-up for floating-point error (the previous linear search ran
// once per transaction per pass).
func pairCountToFlen(pairs int) int {
	if pairs <= 0 {
		return 0
	}
	n := int((1 + math.Sqrt(float64(1+8*pairs))) / 2)
	if n < 2 {
		n = 2
	}
	for n*(n-1)/2 < pairs {
		n++
	}
	for n > 2 && (n-1)*(n-2)/2 >= pairs {
		n--
	}
	return n
}

// bumpHit increments the per-transaction hit count of an item, using epochs
// to avoid clearing the scratch array between transactions.
func (sh *minerShard) bumpHit(it itemset.Item) {
	if sh.hitsEpoch[it] != sh.epoch {
		sh.hitsEpoch[it] = sh.epoch
		sh.hits[it] = 0
	}
	sh.hits[it]++
}

func (sh *minerShard) hitCount(it itemset.Item) int32 {
	if sh.hitsEpoch[it] != sh.epoch {
		return 0
	}
	return sh.hits[it]
}

// applyTrim implements the weakened trimming rule after pass k over a
// transaction: an item below end (a current-partition item) survives only
// as a member of at least k matched candidates, any other item as a member
// of at least one; the transaction itself survives only with at least k
// matched candidates (every candidate of a partition pass contains a
// partition item, so the paper's "candidates containing one or more
// partition items" is all of them). Tree passes trim with end 0: no item
// is below it, so every item survives on one hit. The surviving items
// compact in place — the list is arena-backed and owned by this
// transaction.
func (sh *minerShard) applyTrim(ti int, items itemset.Itemset, end itemset.Item, matched, k int, work *txdb.Work) {
	if matched < k {
		work.Prune(ti)
		sh.prunedTx++
		return
	}
	kept := items[:0]
	for _, it := range items {
		h := sh.hitCount(it)
		need := int32(1)
		if it < end {
			need = int32(k)
		}
		if h >= need {
			kept = append(kept, it)
		} else {
			sh.trimmed++
		}
	}
	if len(kept) < k+1 {
		work.Prune(ti)
		sh.prunedTx++
		return
	}
	work.Trim(ti, kept)
}

// boundViable applies the IHP bound checks to a candidate of size >= 3.
func (lm *localMiner) boundViable(c itemset.Itemset) bool {
	ok, slots := lm.global.Segment(lm.self).BoundReaches(c, lm.minLocal)
	lm.metrics.Work.Charge(int64(slots), mining.CostTHTSlot)
	if ok && lm.global.NumSegments() > 1 {
		var gslots int
		ok, gslots = lm.global.BoundReaches(c, lm.minPrune)
		lm.metrics.Work.Charge(int64(gslots), mining.CostTHTSlot)
	}
	return ok
}

func (lm *localMiner) accumFor(accum map[int]*itemset.Set, k int) *itemset.Set {
	s := accum[k]
	if s == nil {
		s = itemset.NewSet()
		accum[k] = s
	}
	return s
}

// pairSet materializes a packed pair as a 2-itemset from the set arena
// (emitted sets outlive the pass, so they cannot share the partition
// arena).
func (lm *localMiner) pairSet(key uint64) itemset.Itemset {
	s := lm.setArena.Alloc(2)
	s[0], s[1] = mining.PairOf(key)
	return s
}
