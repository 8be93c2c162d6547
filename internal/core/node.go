package core

import (
	"fmt"
	"time"

	"pmihp/internal/cluster"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/tht"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// The PMIHP node protocol (section 2.4), the one implementation both
// runtimes execute: MinePMIHP runs n nodes as goroutines over
// transport.ChanExchange endpoints that charge the simulated fabric, and
// the cluster daemon (internal/distmine) runs one node per logical
// partition over TCP.

// NodeParams is one node's view of a PMIHP session, resolved once — by
// MinePMIHP, or by the cluster coordinator, which ships it in every
// node's Init — so nodes never re-derive it.
type NodeParams struct {
	TotalDocs int // |D| across the cluster
	NumItems  int

	// Opts are the resolved mining options: MinSupCount is the global
	// minimum support count, IntraNodeWorkers the node's worker bound
	// (0: GOMAXPROCS), Obs the node's event sink.
	Opts mining.Options

	// Mode and ApproxDirectCounts are PMIHPConfig's. The wire Init carries
	// neither, nor Opts.GlobalCandidateBatch, so cluster sessions run
	// interleaved and exact at the default batch.
	Mode               PollMode
	ApproxDirectCounts bool
}

// NewNodeParams resolves opts against the whole database.
func NewNodeParams(db *txdb.DB, opts mining.Options) NodeParams {
	opts = opts.WithDefaults()
	opts.MinSupCount = opts.MinCount(db.Len())
	return NodeParams{TotalDocs: db.Len(), NumItems: db.NumItems(), Opts: opts}
}

// NodeHooks wires a node run into its runtime.
type NodeHooks struct {
	// Resume, when non-nil, is the checkpoint of an aborted attempt: at
	// StageItemCounts the run skips the item-count exchange and takes the
	// global vector from it instead. The vector does not depend on how the
	// database is cut, so the mining that follows is byte-identical to an
	// uninterrupted run on any partitioning.
	Resume *transport.Checkpoint
	// Progress, when non-nil (node 0 of a coordinator-driven session),
	// receives the item-count checkpoint once that exchange over a wire
	// completes.
	Progress func(stage uint8, counts []uint32)
	// OnPass, when non-nil, runs after every local counting pass — the
	// daemon's pass counter behind the heartbeat progress payload.
	OnPass func()

	// clock is the node's simulated clock and tally the E9 pair tally;
	// only MinePMIHP sets them.
	clock *cluster.Clock
	tally *PairTally
}

// NodeOutcome is what one node's protocol run produces.
type NodeOutcome struct {
	// GlobalCounts is the all-reduced per-item count vector. Every node
	// computes the same one; only node 0 reports it.
	GlobalCounts []int
	// Found is this node's globally frequent itemsets (k >= 2), with exact
	// global counts (or local lower bounds under ApproxDirectCounts).
	Found []itemset.Counted
	// PhaseSeconds is measured wall clock: [0] item-count exchange, [1] THT
	// exchange, [2] candidate polling, summed over every flush, [3] final
	// exchange.
	PhaseSeconds [4]float64
	// Miner and Server are the node's mining and poll-service accounting.
	Miner, Server mining.Metrics
}

// node is one run of the protocol.
type node struct {
	x transport.Exchange
	// shared is x when its nodes share this address space: collectives
	// then hand values over by reference, so no THT segment or frequent
	// list is ever serialized in-process.
	shared *transport.ChanExchange
	db     *txdb.DB
	p      NodeParams
	h      NodeHooks
	self   int
	out    *NodeOutcome
	global *tht.Global

	// queue of locally frequent itemsets awaiting global resolution.
	queueSets   []itemset.Itemset
	queueCounts []int
	peersBuf    []int

	synced    int64 // miner work units already on the simulated clock
	pollBytes int64 // wire bytes the poll flushes moved (traced runs)
	pollErr   error
}

// RunNode executes the PMIHP node protocol over the exchange: pass-1 item
// counts, the item-count exchange, the fill of the globally frequent
// items' THT rows and the THT exchange over the n-cube, local MIHP that
// polls peers for global candidates — after any pass that leaves
// Opts.GlobalCandidateBatch of them queued (Interleaved), or behind a
// barrier once every node finished mining (Deferred) — and the final
// frequent-list exchange. The caller owns the exchange and closes it after
// the run.
func RunNode(x transport.Exchange, db *txdb.DB, p NodeParams, h NodeHooks) (*NodeOutcome, error) {
	p.Opts = p.Opts.WithDefaults()
	nd := &node{
		x:    x,
		db:   db,
		p:    p,
		h:    h,
		self: x.NodeID(),
		out: &NodeOutcome{
			Miner:  mining.NewMetrics("pmihp-miner"),
			Server: mining.NewMetrics("pmihp-server"),
		},
	}
	nd.shared, _ = x.(*transport.ChanExchange)
	if err := nd.run(); err != nil {
		return nil, err
	}
	return nd.out, nil
}

func (nd *node) run() error {
	x, db, p, h, out := nd.x, nd.db, nd.p, nd.h, nd.out
	n, self := x.Nodes(), nd.self
	glMin := p.Opts.MinSupCount
	workers := p.Opts.Workers()
	entries := max(p.Opts.THTEntries/n, 4) // each node's share of the THT slots
	if h.Resume != nil && int(h.Resume.Nodes) != n {
		return fmt.Errorf("resume checkpoint for %d nodes, this session has %d", h.Resume.Nodes, n)
	}

	// ---- Pass 1, first half: local item counts. The THT rows wait for
	// the global counts, which name the only items whose rows survive.
	counts := db.ItemCounts()
	if c := h.clock; c != nil {
		// The paper's pass 1 reads and hashes every occurrence, and the
		// clock charges all of it here, before the count exchange. It
		// stays out of Metrics.Work, which the busy/idle gauges read as
		// mining plus poll service.
		c.AdvanceWork(int64(db.TotalItems()) * (mining.CostScanItem + mining.CostTHTSlot))
	}

	// ---- Exchange: global item counts. The paper's all-reduce is a
	// gather plus a local sum, which keeps the cascade lossless and,
	// integer addition commuting, yields the same vector at every node in
	// any arrival order. A resume restores the vector the original
	// collective produced from the checkpoint instead.
	var globalCounts []int
	var err error
	if h.Resume == nil || h.Resume.Stage < transport.StageItemCounts {
		if globalCounts, err = nd.exchangeCounts(counts); err != nil {
			return err
		}
	} else if globalCounts, err = countsFromWire(h.Resume.GlobalCounts, p.NumItems); err != nil {
		return fmt.Errorf("resuming item counts: %w", err)
	}
	if self == 0 {
		out.GlobalCounts = globalCounts
	}
	freq, f1 := mining.FrequentItems(globalCounts, glMin)

	// ---- Poll service. Installed before the THT exchange: a peer can
	// only poll after completing that collective, which transitively
	// guarantees this handler exists before the first request arrives.
	// The exchange serializes handler calls.
	pc := NewPollCounter(db, workers, 0)
	server := &out.Server
	rec := p.Opts.Obs
	clock, tally := h.clock, h.tally
	x.SetPollHandler(func(k int, sets []itemset.Itemset) []int32 {
		server.AddCandidates(k, len(sets))
		if rec.Enabled() {
			rec.Poll(obs.PollEvent{Node: self, K: k, Sets: len(sets)})
		}
		if tally != nil {
			tally.noteBatch(self, k, sets)
		}
		before := server.Work.Units
		counts := pc.CountBatch(sets, server)
		if clock != nil {
			clock.AdvanceWork(server.Work.Units - before)
		}
		return counts
	})

	// ---- Pass 1, second half: fill the THT rows of the globally
	// frequent items this node holds. Then exchange the local THTs and
	// assemble the cascade. Every run, resumed or not, passes through
	// this collective, and exiting it is what licenses peers to start
	// polling.
	local := tht.Build(db, entries, counts, freq)
	if err := nd.exchangeTHT(local); err != nil {
		return err
	}
	if rec.Enabled() {
		rec.SetNodeGauge("tht_cascade_bytes", self, nd.global.MemBytes())
	}

	// ---- Local mining, classifying every locally frequent itemset. ----
	lm := &localMiner{
		db:         db,
		opts:       p.Opts,
		minLocal:   LocalMinCount(glMin, db.Len(), p.TotalDocs),
		minPrune:   glMin,
		global:     nd.global,
		self:       self,
		freqItems:  f1,
		freqArr:    freq,
		partitions: Partition(f1, p.Opts.PartitionSize),
		metrics:    &out.Miner,
		emit:       nd.classify,
		onPass:     nd.afterPass,
	}
	if h.tally != nil {
		lm.notePair = func(key uint64) { h.tally.note(self, key) }
	}
	lm.run()

	// ---- Global support counting by peer polling: the remainder of the
	// queue, or all of it after the deferred barrier. ----
	if nd.pollErr == nil && p.Mode == Deferred {
		nd.sync()
		if _, err := x.AllGather(transport.PhaseDeferred, barrierBlob()); err != nil {
			return fmt.Errorf("deferred barrier: %w", err)
		}
	}
	if nd.pollErr == nil {
		// The last flush gets the node's only reference to the cascade, so
		// the cascade is not kept through the poll round trips and the
		// final exchange, which wait on the slowest node.
		cascade := nd.global
		nd.global = nil
		nd.pollErr = nd.flush(cascade)
	}
	nd.span("poll:resolve", out.PhaseSeconds[2], nd.pollBytes, nd.pollErr)
	if nd.pollErr != nil {
		return nd.pollErr
	}

	// ---- Final exchange of the globally frequent lists. ----
	// Exiting this collective proves every peer has finished polling, so
	// the poll service can be torn down safely. Nodes do not decode the
	// lists: MinePMIHP or the cluster coordinator merges every node's Found
	// once.
	nd.sync()
	listBytes := int64(0)
	for _, c := range out.Found {
		listBytes += int64(4*len(c.Set) + 8)
	}
	if _, err := nd.gather(transport.PhaseFinal, 3, "exchange:final", out.Found, listBytes, func() []byte {
		return transport.AppendCountedList(nil, out.Found)
	}); err != nil {
		return fmt.Errorf("final exchange: %w", err)
	}
	if rec.Enabled() {
		rec.SetNodeGauge("peak_held_bytes", self, out.Miner.PeakHeldBytes+out.Server.PeakHeldBytes)
	}
	return nil
}

// exchangeCounts all-reduces the pass-1 item counts. The simulated
// fabric prices the paper's dense vector; over a wire each node ships
// only its non-zero counts and decodes every blob straight into the sum.
func (nd *node) exchangeCounts(counts []int) ([]int, error) {
	numItems := nd.p.NumItems
	vals, err := nd.gather(transport.PhaseItemCounts, 0, "exchange:item-counts", counts, int64(4*numItems), func() []byte {
		return transport.AppendItemCounts(nil, counts)
	})
	if err != nil {
		return nil, fmt.Errorf("item-count exchange: %w", err)
	}
	global := make([]int, numItems)
	for i, v := range vals {
		switch v := v.(type) {
		case []int:
			for it, c := range v {
				global[it] += c
			}
		case []byte:
			if err := transport.AddItemCounts(global, v); err != nil {
				return nil, fmt.Errorf("item counts from node %d: %w", i, err)
			}
		}
	}
	if nd.h.Progress != nil && nd.shared == nil {
		nd.h.Progress(transport.StageItemCounts, u32Counts(global))
	}
	return global, nil
}

// exchangeTHT all-gathers the retained, masked local segments into the
// cascaded global view. In-process nodes share the segments themselves,
// and the simulated fabric prices their dense size; over a wire each
// node decodes its peers' sparse segments, masks included, against the
// session's geometry.
func (nd *node) exchangeTHT(local *tht.Local) error {
	vals, err := nd.gather(transport.PhaseTHT, 1, "exchange:tht", local, int64(local.Bytes()), func() []byte {
		return local.AppendWire(nil)
	})
	if err != nil {
		return fmt.Errorf("tht exchange: %w", err)
	}
	segments := make([]*tht.Local, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case *tht.Local:
			segments[i] = v
		case []byte:
			if i == nd.self {
				segments[i] = local
				continue
			}
			seg, err := tht.DecodeWire(v, local.Entries(), nd.p.NumItems)
			if err != nil {
				return fmt.Errorf("tht segment from node %d: %w", i, err)
			}
			segments[i] = seg
		}
	}
	nd.global = tht.NewGlobal(segments)
	return nil
}

// gather runs one measured collective: PhaseSeconds[slot] holds its wall
// clock and its span reuses that measurement, so a trace replay reconciles
// with Metrics.WireSeconds. Nodes sharing this address space contribute v
// itself, priced at bytes; over a wire a node contributes enc() and every
// value returned is a []byte blob.
func (nd *node) gather(phase transport.Phase, slot int, name string, v any, bytes int64, enc func() []byte) ([]any, error) {
	stop := nd.measure(slot)
	var vals []any
	var err error
	if nd.shared != nil {
		vals, err = nd.shared.Share(phase, v, bytes)
	} else {
		var blobs [][]byte
		blobs, err = nd.x.AllGather(phase, enc())
		for _, b := range blobs {
			vals = append(vals, b)
		}
	}
	nd.span(name, nd.out.PhaseSeconds[slot], stop(), err)
	return vals, err
}

// barrierBlob is a barrier's contribution. The one byte matters: the
// all-gather treats nil blobs as missing contributions.
func barrierBlob() []byte { return []byte{1} }

// measure starts timing a phase. The returned stop adds the wall clock
// since to PhaseSeconds[slot] and returns the wire bytes the node's own
// traffic moved meanwhile (0 when observability is off). Polls the node
// served for its peers during the phase are not its own traffic: how
// many land inside the phase depends on goroutine scheduling.
func (nd *node) measure(slot int) (stop func() int64) {
	traced := nd.p.Opts.Obs.Enabled()
	var before int64
	if traced {
		before = nd.x.Stats().OwnBytes()
	}
	t0 := time.Now()
	return func() int64 {
		nd.out.PhaseSeconds[slot] += time.Since(t0).Seconds()
		if !traced {
			return 0
		}
		return nd.x.Stats().OwnBytes() - before
	}
}

// span records one phase span on the node's recorder.
func (nd *node) span(name string, seconds float64, bytes int64, err error) {
	rec := nd.p.Opts.Obs
	if !rec.Enabled() {
		return
	}
	ev := obs.SpanEvent{Name: name, Node: nd.self, Seconds: seconds, Bytes: bytes}
	if err != nil {
		ev.Err = err.Error()
	}
	rec.RecordSpan(ev)
}

// classify implements section 2.4 step 5 for one locally frequent itemset.
func (nd *node) classify(set itemset.Itemset, count int) {
	if count >= nd.p.Opts.MinSupCount {
		// Directly globally frequent. In exact mode it still goes through
		// polling so the recorded support is the true global count.
		if nd.p.ApproxDirectCounts {
			nd.out.Found = append(nd.out.Found, itemset.Counted{Set: set, Count: count})
			return
		}
	} else {
		nd.out.Miner.GlobalCandidates++
	}
	nd.queueSets = append(nd.queueSets, set)
	nd.queueCounts = append(nd.queueCounts, count)
}

// afterPass runs between counting passes. In interleaved mode it flushes
// the queue once a batch has accumulated (the paper polls "when certain
// number of global candidate itemsets are accumulated"); a failed poll
// stops the local mining, and the node fails with it.
func (nd *node) afterPass() bool {
	if nd.h.OnPass != nil {
		nd.h.OnPass()
	}
	if nd.p.Mode == Interleaved && len(nd.queueSets) >= nd.p.Opts.GlobalCandidateBatch {
		nd.pollErr = nd.flush(nd.global)
	}
	return nd.pollErr == nil
}

// sync advances the simulated clock by the miner work charged since the
// last sync. Between two collectives charges only add up, so syncing right
// before each one is exact.
func (nd *node) sync() {
	if c := nd.h.clock; c != nil {
		c.AdvanceWork(nd.out.Miner.Work.Units - nd.synced)
		nd.synced = nd.out.Miner.Work.Units
	}
}

// flush resolves the queued itemsets: it polls peers for their remote
// support counts and keeps those whose exact global support reaches the
// global minimum. Peers are selected per itemset from the cascaded THT
// ("only the processing nodes that have a positive TID hash count will be
// polled"); requests to one peer are batched by itemset size, split into
// chunks of at most pollChunk sets to bound frame sizes.
func (nd *node) flush(cascade *tht.Global) error {
	sets, totals := nd.queueSets, nd.queueCounts
	nd.queueSets, nd.queueCounts = nil, nil
	if len(sets) == 0 {
		return nil
	}
	m := &nd.out.Miner
	stop := nd.measure(2)
	groups := make(map[peerK][]int)
	slots := int64(0)
	for pos, set := range sets {
		peers, s := cascade.PollPeers(set, nd.self, nd.peersBuf)
		nd.peersBuf = peers
		slots += int64(s)
		for _, p := range peers {
			gk := peerK{p, len(set)}
			groups[gk] = append(groups[gk], pos)
		}
	}
	m.Work.Charge(slots, mining.CostTHTSlot)
	if len(groups) > 0 {
		m.PollRounds++
	}
	// The cascade is dead from here on, so the final flush, which holds the
	// node's last reference, releases it before the poll round trips.
	err := nd.poll(groups, sets, totals)
	nd.pollBytes += stop()
	if err != nil {
		return err
	}
	for i, set := range sets {
		if totals[i] >= nd.p.Opts.MinSupCount {
			nd.out.Found = append(nd.out.Found, itemset.Counted{Set: set, Count: totals[i]})
		}
	}
	return nil
}

// peerK keys a poll request: the polled peer and the itemset size.
type peerK struct{ peer, k int }

// poll sends each group's itemsets to its peer and adds the returned local
// counts to totals.
func (nd *node) poll(groups map[peerK][]int, sets []itemset.Itemset, totals []int) error {
	for gk, positions := range groups {
		for lo := 0; lo < len(positions); lo += pollChunk {
			chunk := positions[lo:min(lo+pollChunk, len(positions))]
			req := make([]itemset.Itemset, len(chunk))
			for i, pos := range chunk {
				req[i] = sets[pos]
			}
			nd.out.Miner.MessagesSent++
			counts, err := nd.x.Poll(gk.peer, gk.k, req)
			if err != nil {
				return fmt.Errorf("global counting: %w", err)
			}
			for i, pos := range chunk {
				totals[pos] += int(counts[i])
			}
		}
	}
	return nil
}

// pollChunk bounds the itemsets of one poll request: the paper's batch of
// 20,000 global candidates.
const pollChunk = 20000

// u32Counts converts item counts into their checkpoint form.
func u32Counts(counts []int) []uint32 {
	v := make([]uint32, len(counts))
	for it, c := range counts {
		v[it] = uint32(c)
	}
	return v
}
