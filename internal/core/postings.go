package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Poll service counting. A PMIHP node answers peers' support-count requests
// from an inverted posting file over its local database rather than by
// rescanning it: text-database nodes have inverted files as a matter of
// course (the collection exists to be searched; the paper's own technique
// is *Inverted* Hashing and Pruning), and posting intersection prices a
// batch by the document frequencies of the polled itemsets instead of by
// a full database scan per polling round. Without this, frequent small
// polls would be charged a per-round scan that the local miner — which
// counts hundreds of thousands of candidates per scan — never pays,
// distorting the balance the paper reports in Figure 8.
//
// Physical layout is hybrid. Sparse posting lists are delta-encoded varint
// blocks of up to postingBlockLen TIDs each, all items concatenated into
// one byte blob; each block's first TID is stored absolute (so any block
// decodes without its predecessors) and carries a skip entry — its max TID
// and byte offset — in flat arrays indexed by a global block number, and
// intersection gallops over the skip entries, decoding only blocks that can
// contain a match. Items whose document frequency reaches a density cutoff
// (denseCutoff of the node's TID span) are instead stored as flat
// bitmap words: stopword-grade lists intersect by word-wise AND +
// bits.OnesCount64, touching 64 candidate TIDs per word instead of decoding
// varints. Three kernels cover the combinations — block×block
// (intersectItem), bitmap×block (intersectBits over a decoded accumulator),
// and bitmap×bitmap (andBits) — and because lists merge smallest-first and
// the density rule is a frequency cut, a counting chain is either all-bitmap
// or starts sparse, so the accumulator representation never has to convert
// upward.
//
// The representation switch is invisible to the simulated clock: every
// kernel's charge is the closed-form linear-merge cost, which depends only
// on the cardinalities of the intersected sets, never on their encoding.

// postingBlockLen is the number of TIDs per compressed block. 128 deltas
// keep a decoded block inside two cache lines of skip metadata while
// amortizing the per-block absolute head across the run.
const postingBlockLen = 128

// postings is the per-node inverted file in hybrid compressed/bitmap form,
// plus the intersection scratch, so steady-state counting allocates nothing.
//
// Document frequencies are not stored as a full-width array: a node's
// vocabulary is much larger than the set of items its documents actually
// contain, so per-item metadata is the footprint that matters. A sparse
// item's frequency is reconstructed from its block count and a one-byte
// length of its final block (every other block is full) via dfOf; dense
// items carry theirs in denseDF.
type postings struct {
	blob    []byte     // delta-varint blocks, all items concatenated
	skipMax []txdb.TID // per block: the block's last (max) TID
	skipOff []uint32   // per block: byte offset of the block in blob; +1 sentinel
	blockOf []uint32   // per item: first global block index; len NumItems()+1
	lastLen []uint8    // per item: entries in its last block, minus one; unused when empty

	// Dense (bitmap) representation. An item at or above the density cutoff
	// has no blocks; its posting list is the set bits of one stride of words
	// in denseBits, bit i standing for TID tidBase+i. denseIdx is nil when
	// no item qualified, so sparse corpora pay nothing.
	denseIdx  []int32  // per item: dense slot, or -1 when block-encoded
	denseDF   []int32  // per dense slot: posting-list length (bitmap popcount)
	denseBits []uint64 // concatenated bitmaps, words words per dense slot
	tidBase   txdb.TID // TID of bit 0
	words     int      // bitmap words per dense item: ceil(span/64)
	cutoff    int32    // df at or above which an item is bitmap-backed

	// scratch is the serial counting path's state, accounted by MemBytes;
	// extra holds additional per-shard states for batch counting sharded
	// across IntraNodeWorkers. Like the miner's per-shard scratch, the extra
	// states are transient worker state and stay out of the deterministic
	// held-bytes accounting (which must not depend on the worker count).
	scratch postingScratch
	extra   []*postingScratch
}

// postingScratch is one worker's reusable intersection state.
type postingScratch struct {
	refs     []plistRef // per-count row refs
	bufA     []txdb.TID // ping-pong accumulators, cap = max sparse df
	bufB     []txdb.TID
	accBits  []uint64                  // bitmap accumulator for all-dense chains
	blockBuf [postingBlockLen]txdb.TID // single-block decode scratch
}

// plistRef is one polled item's posting list by reference: intersections
// are ordered and charged by document frequency without decoding anything.
type plistRef struct {
	item itemset.Item
	df   int32
}

// gallopSkew is the length ratio beyond which the intersection of two
// posting lists switches from a linear merge to galloping (binary-skip)
// search through the longer list. Text collections are Zipfian, so a rare
// term polled against a stopword-grade list is the common case, not the
// exception.
const gallopSkew = 16

// defaultDenseThreshold is the density (document frequency over TID span)
// at or above which a posting list is stored as a bitmap. At 1/16 a bitmap
// costs at most 4x the worst-case 4-byte-per-TID flat list, while word-wise
// AND+POPCNT processes 64 candidate TIDs per word. The cut sits well above
// the wall-clock crossover of the block kernels on purpose: a bitmap holds
// span/8 bytes per item regardless of df, so sparser lists stay compressed
// for memory, not speed.
const defaultDenseThreshold = 1.0 / 16

// denseCutoff resolves a density threshold against a TID span into the
// document frequency at or above which a posting list is bitmap-backed.
// 0 selects defaultDenseThreshold; a threshold above 1 (or +Inf) returns
// span+1, so no list qualifies; the cutoff never drops below one TID.
func denseCutoff(threshold float64, span int) int {
	if threshold == 0 {
		threshold = defaultDenseThreshold
	}
	if threshold > 1 {
		return span + 1
	}
	c := int(math.Ceil(threshold * float64(span)))
	if c < 1 {
		c = 1
	}
	return c
}

// buildPostings constructs the inverted file from the database's CSR
// arrays in two sharded passes: first per-shard document frequencies,
// then prefix sums position every shard's writes directly into one flat
// TID array — no transient per-shard [][]TID, no per-item append chains.
// Shard write regions concatenate in shard order, which reproduces the
// serial (database-order) lists exactly; the flat lists are then encoded
// into varint blocks or, at or above the density cutoff resolved from
// denseThreshold, into bitmaps. The scan is charged once to the node's
// server accounting, identically to the uncompressed build.
func buildPostings(db *txdb.DB, m *mining.Metrics, workers int, denseThreshold float64) *postings {
	numItems := db.NumItems()
	n := db.Len()
	items, offsets, tids := db.CSR()
	// The positioned writes of pass 2 require each shard to own one
	// contiguous range with regions concatenating in shard order, so the
	// build stays on the static partition rather than the chunk queue.
	nShards := mining.NumStatic(n, workers)

	// Pass 1: per-shard, per-item occurrence counts.
	shardCounts := make([][]int32, nShards)
	mining.RunStatic(n, workers, func(s, lo, hi int) {
		c := make([]int32, numItems)
		for _, it := range items[offsets[lo]:offsets[hi]] {
			c[it]++
		}
		shardCounts[s] = c
	})

	df := make([]int32, numItems)
	for _, c := range shardCounts {
		for it, v := range c {
			df[it] += v
		}
	}
	pos := make([]uint32, numItems+1)
	for it, v := range df {
		pos[it+1] = pos[it] + uint32(v)
	}
	total := pos[numItems]
	p := &postings{}

	// Density geometry: TIDs are ascending in database order, so the node's
	// span is one subtraction. The cutoff is relative to the span (not the
	// document count) so split policies that scatter a part across the
	// global TID range price their sparser bitmaps honestly.
	span := db.TIDSpan()
	if n > 0 {
		p.tidBase = tids[0]
	}
	p.words = (span + 63) / 64
	p.cutoff = int32(denseCutoff(denseThreshold, span))

	// Scratch accumulators only ever hold chains seeded from a sparse
	// (block-encoded) list, so their capacity follows the largest sparse df;
	// all-dense chains accumulate in bitmap words instead.
	maxSparseDF := int32(0)
	for _, v := range df {
		if v < p.cutoff && v > maxSparseDF {
			maxSparseDF = v
		}
	}

	// Turn the per-shard counts into per-shard write cursors: shard s
	// writes item it's TIDs at pos[it] plus the occurrences in shards < s.
	run := make([]uint32, numItems)
	for s := 0; s < nShards; s++ {
		c := shardCounts[s]
		for it := range c {
			cnt := c[it]
			c[it] = int32(pos[it] + run[it])
			run[it] += uint32(cnt)
		}
	}

	// Pass 2: positioned writes into the flat TID store.
	tidStore := make([]txdb.TID, total)
	mining.RunStatic(n, workers, func(s, lo, hi int) {
		cur := shardCounts[s]
		for i := lo; i < hi; i++ {
			tid := tids[i]
			for _, it := range items[offsets[i]:offsets[i+1]] {
				tidStore[cur[it]] = tid
				cur[it]++
			}
		}
	})

	p.encode(tidStore, pos)
	p.scratch.bufA = make([]txdb.TID, 0, maxSparseDF)
	p.scratch.bufB = make([]txdb.TID, 0, maxSparseDF)
	if p.denseIdx != nil {
		p.scratch.accBits = make([]uint64, p.words)
	}

	m.Work.Charge(int64(total), mining.CostScanItem)
	return p
}

// encode lays out the flat per-item TID lists (item it owns
// store[pos[it]:pos[it+1]]): lists of cutoff or more TIDs become bitmaps,
// everything else delta-varint blocks with skip entries.
func (p *postings) encode(store []txdb.TID, pos []uint32) {
	numItems := len(pos) - 1
	p.blockOf = make([]uint32, numItems+1)
	p.lastLen = make([]uint8, numItems)
	nDense := 0
	for it := 0; it < numItems; it++ {
		v := int32(pos[it+1] - pos[it])
		if v >= p.cutoff && v > 0 {
			p.blockOf[it+1] = p.blockOf[it] // dense: no blocks
			nDense++
			continue
		}
		p.blockOf[it+1] = p.blockOf[it] + uint32((int(v)+postingBlockLen-1)/postingBlockLen)
		if v > 0 {
			p.lastLen[it] = uint8((int(v) - 1) % postingBlockLen)
		}
	}
	if nDense > 0 {
		p.denseIdx = make([]int32, numItems)
		for it := range p.denseIdx {
			p.denseIdx[it] = -1
		}
		p.denseDF = make([]int32, 0, nDense)
		p.denseBits = make([]uint64, nDense*p.words)
		for it := 0; it < numItems; it++ {
			v := int32(pos[it+1] - pos[it])
			if v < p.cutoff || v == 0 {
				continue
			}
			slot := int32(len(p.denseDF))
			p.denseIdx[it] = slot
			p.denseDF = append(p.denseDF, v)
			bm := p.denseBits[int(slot)*p.words : (int(slot)+1)*p.words]
			for _, tid := range store[pos[it]:pos[it+1]] {
				o := tid - p.tidBase
				bm[o>>6] |= 1 << (o & 63)
			}
		}
	}

	totalBlocks := p.blockOf[numItems]
	p.skipMax = make([]txdb.TID, totalBlocks)
	p.skipOff = make([]uint32, totalBlocks+1)
	// Deltas of ascending uint32 TIDs are ≥1 and almost always fit one or
	// two varint bytes; reserve two per block-encoded posting to avoid
	// regrowth.
	p.blob = make([]byte, 0, 2*len(store))

	b := uint32(0)
	for it := 0; it < numItems; it++ {
		if p.blockOf[it+1] == p.blockOf[it] {
			continue // empty or bitmap-backed
		}
		list := store[pos[it]:pos[it+1]]
		for lo := 0; lo < len(list); lo += postingBlockLen {
			hi := lo + postingBlockLen
			if hi > len(list) {
				hi = len(list)
			}
			p.skipOff[b] = uint32(len(p.blob))
			p.skipMax[b] = list[hi-1]
			p.blob = binary.AppendUvarint(p.blob, uint64(list[lo]))
			prev := list[lo]
			for _, v := range list[lo+1 : hi] {
				p.blob = binary.AppendUvarint(p.blob, uint64(v-prev))
				prev = v
			}
			b++
		}
	}
	p.skipOff[totalBlocks] = uint32(len(p.blob))
	// The deltas usually undershoot the two-bytes-per-entry reservation;
	// re-fit the blob so the build's guess doesn't stay resident (and so
	// MemBytes, which counts lengths, is the memory actually held).
	if cap(p.blob) > len(p.blob) {
		p.blob = append(make([]byte, 0, len(p.blob)), p.blob...)
	}
}

// denseSlot returns item it's dense slot, or -1 when the item is
// block-encoded (or no item is dense at all).
func (p *postings) denseSlot(it itemset.Item) int32 {
	if p.denseIdx == nil {
		return -1
	}
	return p.denseIdx[it]
}

// bitmap returns dense slot s's bitmap words.
func (p *postings) bitmap(s int32) []uint64 {
	lo := int(s) * p.words
	return p.denseBits[lo : lo+p.words : lo+p.words]
}

// dfOf returns item it's document frequency (posting-list length): the
// stored popcount for dense items, otherwise reconstructed from the block
// count and last-block length.
func (p *postings) dfOf(it itemset.Item) int32 {
	if s := p.denseSlot(it); s >= 0 {
		return p.denseDF[s]
	}
	nb := p.blockOf[it+1] - p.blockOf[it]
	if nb == 0 {
		return 0
	}
	return int32(nb-1)*postingBlockLen + int32(p.lastLen[it]) + 1
}

// blockEntries returns how many TIDs block b of item it holds: a full
// postingBlockLen except possibly the item's last block.
func (p *postings) blockEntries(it itemset.Item, b uint32) int {
	if b == p.blockOf[it+1]-1 {
		return int(p.lastLen[it]) + 1
	}
	return postingBlockLen
}

// decodeBlock expands block b of item it into the caller's block scratch.
func (p *postings) decodeBlock(it itemset.Item, b uint32, bbuf *[postingBlockLen]txdb.TID) []txdb.TID {
	entries := p.blockEntries(it, b)
	buf := bbuf[:entries]
	at := int(p.skipOff[b])
	prev := txdb.TID(0)
	for k := 0; k < entries; k++ {
		v, n := binary.Uvarint(p.blob[at:])
		at += n
		if k == 0 {
			prev = txdb.TID(v)
		} else {
			prev += txdb.TID(v)
		}
		buf[k] = prev
	}
	return buf
}

// decodeAll appends item it's full posting list to dst, whichever
// representation backs it.
func (p *postings) decodeAll(it itemset.Item, dst []txdb.TID) []txdb.TID {
	if s := p.denseSlot(it); s >= 0 {
		return p.appendBits(dst, s)
	}
	for b := p.blockOf[it]; b < p.blockOf[it+1]; b++ {
		entries := p.blockEntries(it, b)
		at := int(p.skipOff[b])
		prev := txdb.TID(0)
		for k := 0; k < entries; k++ {
			v, n := binary.Uvarint(p.blob[at:])
			at += n
			if k == 0 {
				prev = txdb.TID(v)
			} else {
				prev += txdb.TID(v)
			}
			dst = append(dst, prev)
		}
	}
	return dst
}

// appendBits appends the TIDs of dense slot s's bitmap to dst, ascending.
func (p *postings) appendBits(dst []txdb.TID, s int32) []txdb.TID {
	for wi, w := range p.bitmap(s) {
		base := p.tidBase + txdb.TID(wi*64)
		for ; w != 0; w &= w - 1 {
			dst = append(dst, base+txdb.TID(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// row returns item it's posting list decoded into a fresh slice. It is the
// reference accessor for tests and debugging; the counting path never
// materializes full lists except for the smallest one.
func (p *postings) row(it itemset.Item) []txdb.TID {
	if int(it)+1 >= len(p.blockOf) {
		return nil
	}
	df := p.dfOf(it)
	if df == 0 {
		return nil
	}
	return p.decodeAll(it, make([]txdb.TID, 0, df))
}

// MemBytes returns the resident size of the hybrid inverted file, including
// the serial counting path's reusable scratch. Element widths come from
// unsafe.Sizeof so the accounting survives a TID-width change; the per-shard
// extra scratch states stay out (see the postings field comment).
func (p *postings) MemBytes() int64 {
	const (
		tidSize  = int64(unsafe.Sizeof(txdb.TID(0)))
		u32Size  = int64(unsafe.Sizeof(uint32(0)))
		u64Size  = int64(unsafe.Sizeof(uint64(0)))
		i32Size  = int64(unsafe.Sizeof(int32(0)))
		byteSize = int64(1)
	)
	return byteSize*int64(len(p.blob)) + byteSize*int64(len(p.lastLen)) +
		tidSize*int64(len(p.skipMax)) + u32Size*int64(len(p.skipOff)) + u32Size*int64(len(p.blockOf)) +
		i32Size*int64(len(p.denseIdx)) + i32Size*int64(len(p.denseDF)) + u64Size*int64(len(p.denseBits)) +
		tidSize*int64(cap(p.scratch.bufA)+cap(p.scratch.bufB)) +
		u64Size*int64(cap(p.scratch.accBits)) +
		tidSize*postingBlockLen
}

// ensureScratch grows the extra per-shard scratch pool so shards 0..n-1 can
// each take a private state. Must be called before the shards run; the pool
// persists across batches so steady-state counting allocates nothing.
func (p *postings) ensureScratch(n int) {
	for len(p.extra) < n-1 {
		sc := &postingScratch{
			bufA: make([]txdb.TID, 0, cap(p.scratch.bufA)),
			bufB: make([]txdb.TID, 0, cap(p.scratch.bufB)),
		}
		if p.denseIdx != nil {
			sc.accBits = make([]uint64, p.words)
		}
		p.extra = append(p.extra, sc)
	}
}

// scratchFor returns shard s's counting scratch. Shard 0 reuses the serial
// state; ensureScratch must have covered the rest.
func (p *postings) scratchFor(s int) *postingScratch {
	if s == 0 {
		return &p.scratch
	}
	return p.extra[s-1]
}

// count returns the exact local support of the itemset on the serial path,
// charging the merge work to m.
func (p *postings) count(x itemset.Itemset, m *mining.Metrics) int {
	n, ops := p.countScratch(x, &p.scratch)
	m.Work.Charge(ops, 1)
	return n
}

// countScratch returns the exact local support of the itemset by
// intersecting its members' posting lists smallest-first, along with the
// charged merge work. The charge is the cost of the classic linear merge —
// for ascending duplicate-free lists that cost has the closed form
// len(a) + len(b) − |a∩b| per merged pair, counting both the paired
// advances and the unpaired tails — so the simulated clock is unchanged by
// any physical-layout switch: bitmap, block, and mixed chains over the same
// sets charge identically.
//
// Lists merge in ascending df order, and density is a df cut (df ≥ cutoff),
// so if the smallest list is dense every list is: that chain runs entirely
// in bitmap words (andBits). Otherwise the smallest list is block-encoded:
// it is decoded once, and every further list intersects against the decoded
// accumulator in its own representation — skip-galloped blocks
// (intersectItem) or bitmap probes (intersectBits).
func (p *postings) countScratch(x itemset.Itemset, sc *postingScratch) (n int, ops int64) {
	refs := sc.refs[:0]
	defer func() { sc.refs = refs[:0] }()
	for _, it := range x {
		if int(it)+1 >= len(p.blockOf) {
			return 0, 0
		}
		df := p.dfOf(it)
		if df == 0 {
			return 0, 0
		}
		refs = append(refs, plistRef{item: it, df: df})
	}
	// Stable insertion sort by document frequency: itemsets are tiny
	// (k ≤ MaxK), and stability preserves the original tie order the
	// charging model was calibrated against.
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].df < refs[j-1].df; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	if s := p.denseSlot(refs[0].item); s >= 0 {
		// All-dense chain: word-wise AND + POPCNT, never materializing TIDs.
		acc := sc.accBits
		copy(acc, p.bitmap(s))
		card := int(refs[0].df)
		for _, r := range refs[1:] {
			out := andBits(acc, p.bitmap(p.denseSlot(r.item)))
			ops += int64(card) + int64(r.df) - int64(out)
			card = out
			if card == 0 {
				break
			}
		}
		return card, ops
	}
	cur, nxt := sc.bufA, sc.bufB
	acc := p.decodeAll(refs[0].item, cur[:0])
	for _, r := range refs[1:] {
		var out []txdb.TID
		if s := p.denseSlot(r.item); s >= 0 {
			out = p.intersectBits(nxt[:0], acc, s)
		} else {
			out = p.intersectItem(nxt[:0], acc, r.item, &sc.blockBuf)
		}
		ops += int64(len(acc)) + int64(r.df) - int64(len(out))
		acc = out
		cur, nxt = nxt, cur
		if len(acc) == 0 {
			break
		}
	}
	return len(acc), ops
}

// andBits ANDs b into acc in place and returns the popcount of the result —
// the bitmap×bitmap kernel.
func andBits(acc, b []uint64) int {
	card := 0
	for j, w := range b {
		acc[j] &= w
		card += bits.OnesCount64(acc[j])
	}
	return card
}

// intersectBits appends to dst the members of the ascending duplicate-free
// list a whose bit is set in dense slot s's bitmap — the bitmap×block
// kernel: the accumulator is already decoded, so each probe is one shift
// and mask instead of a block walk.
func (p *postings) intersectBits(dst, a []txdb.TID, s int32) []txdb.TID {
	bm := p.bitmap(s)
	base := p.tidBase
	for _, v := range a {
		o := v - base
		if bm[o>>6]&(1<<(o&63)) != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// intersectItem appends to dst the intersection of the ascending
// duplicate-free list a with item it's block-encoded posting list — the
// block×block kernel. The accumulator is always the shorter side (lists are
// merged smallest-first and only shrink), so the walk iterates a and skips
// through it's blocks: an exponential probe over the skipMax entries
// brackets the first block that can hold the probe value, a binary search
// pins it, and only that block is decoded. A block stays decoded while
// consecutive probes land in it, so dense runs degrade gracefully to a
// linear merge.
func (p *postings) intersectItem(dst, a []txdb.TID, it itemset.Item, bbuf *[postingBlockLen]txdb.TID) []txdb.TID {
	first, last := p.blockOf[it], p.blockOf[it+1]
	bi := first
	decoded := last // sentinel: no block decoded yet (bi < last always holds)
	var blk []txdb.TID
	cur := 0
	for _, v := range a {
		if p.skipMax[bi] < v {
			lo, step := bi, uint32(1)
			for lo+step < last && p.skipMax[lo+step] < v {
				lo += step
				step <<= 1
			}
			hi := lo + step
			if hi > last {
				hi = last
			}
			// skipMax[lo] < v <= skipMax[hi] (or hi == last); binary
			// search (lo, hi] for the first block that can contain v.
			s, e := lo+1, hi
			for s < e {
				mid := (s + e) >> 1
				if p.skipMax[mid] < v {
					s = mid + 1
				} else {
					e = mid
				}
			}
			bi = s
			if bi >= last {
				break
			}
		}
		if bi != decoded {
			blk = p.decodeBlock(it, bi, bbuf)
			decoded = bi
			cur = 0
		}
		for cur < len(blk) && blk[cur] < v {
			cur++
		}
		if cur < len(blk) && blk[cur] == v {
			dst = append(dst, v)
			cur++
		}
	}
	return dst
}

// intersectInto appends the intersection of the ascending duplicate-free
// lists a and b (len(a) <= len(b)) to dst. When b dwarfs a it gallops:
// for each element of a, an exponential probe from the current position in
// b brackets the target, then a binary search pins it. This is the
// uncompressed reference intersection; the counting path uses the hybrid
// kernels, and the equivalence tests check each of them against this.
func intersectInto(dst, a, b []txdb.TID) []txdb.TID {
	if len(b) >= gallopSkew*len(a) {
		j := 0
		for _, v := range a {
			if j >= len(b) {
				break
			}
			if b[j] < v {
				lo, step := j, 1
				for lo+step < len(b) && b[lo+step] < v {
					lo += step
					step <<= 1
				}
				hi := lo + step
				if hi > len(b) {
					hi = len(b)
				}
				// b[lo] < v <= b[hi] (or hi == len(b)); binary search (lo, hi].
				s, e := lo+1, hi
				for s < e {
					mid := int(uint(s+e) >> 1)
					if b[mid] < v {
						s = mid + 1
					} else {
						e = mid
					}
				}
				j = s
			}
			if j < len(b) && b[j] == v {
				dst = append(dst, v)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
