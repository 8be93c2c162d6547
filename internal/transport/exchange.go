package transport

import (
	"fmt"
	"slices"
	"sync"

	"pmihp/internal/cluster"
	"pmihp/internal/itemset"
)

// Phase identifies one collective exchange of the PMIHP protocol. Every
// node of a session must call AllGather with the same phase sequence.
type Phase uint8

const (
	// PhaseItemCounts is the post-pass-1 exchange of local item count
	// vectors (the all-reduce of the paper, realized as gather + local
	// sum so the cascade stays lossless).
	PhaseItemCounts Phase = 1
	// PhaseTHT is the exchange of local TID-hash-table segments.
	PhaseTHT Phase = 2
	// PhaseFinal is the final exchange of globally frequent itemsets.
	PhaseFinal Phase = 3
	// PhaseDeferred is the barrier a deferred-mode node runs between local
	// mining and candidate polling: the start of the global support
	// counting phase Figure 8 measures.
	PhaseDeferred Phase = 5
)

func (p Phase) String() string {
	switch p {
	case PhaseItemCounts:
		return "item-counts"
	case PhaseTHT:
		return "tht"
	case PhaseFinal:
		return "frequent-lists"
	case PhaseDeferred:
		return "deferred-barrier"
	}
	return fmt.Sprintf("phase-%d", uint8(p))
}

// PollHandler answers a peer's candidate poll with the local support
// count of each itemset, aligned with sets. Implementations need not be
// safe for concurrent calls; the exchange serializes them.
type PollHandler func(k int, sets []itemset.Itemset) []int32

// Exchange is the pluggable communication layer a PMIHP node runs on.
// Two implementations exist: ChanExchange (in-process goroutines, the
// simulator's interconnect behind core.MinePMIHP) and TCPExchange (real
// sockets between OS processes, driven by internal/distmine). The node
// protocol, core.RunNode, is written against this interface only.
//
// Protocol obligation: SetPollHandler must be called before entering
// AllGather(PhaseTHT). Polls are only sent by nodes that completed that
// collective, which transitively guarantees every peer's handler is
// installed before the first poll can arrive.
type Exchange interface {
	// NodeID returns this node's id in [0, Nodes()).
	NodeID() int
	// Nodes returns the cluster size.
	Nodes() int
	// SetPollHandler installs the local poll-answering function.
	SetPollHandler(h PollHandler)
	// AllGather contributes blob and returns every node's blob indexed
	// by node id. It is a collective: all nodes must call it with the
	// same phase, and it blocks until the exchange pattern completes.
	AllGather(phase Phase, blob []byte) ([][]byte, error)
	// Poll asks peer for the local support counts of a batch of
	// k-itemsets and returns the counts aligned with sets.
	Poll(peer, k int, sets []itemset.Itemset) ([]int32, error)
	// Stats returns the node's cumulative wire counters.
	Stats() *WireStats
	// Close releases connections and unblocks pending waits.
	Close() error
}

// ---- in-process channel exchange ----

// chanGroup is the shared state of an in-process cluster: one gather
// rendezvous per phase, the endpoint table polls route through, and the
// simulated fabric they charge (nil: none).
type chanGroup struct {
	n         int
	fabric    *cluster.Fabric
	mu        sync.Mutex
	gathers   map[Phase]*gatherState
	endpoints []*ChanExchange
	closeOnce sync.Once
	closed    chan struct{}
}

type gatherState struct {
	vals    []any
	bytes   []int64
	entered []bool
	got     int
	left    int // nodes that returned; the last one drops vals
	done    chan struct{}
	// start and elapsed are the collective's simulated start time and
	// duration, set by the last node to arrive.
	start, elapsed float64
}

// ChanExchange is the in-process Exchange: nodes are goroutines sharing
// one address space, a gather is a shared rendezvous that hands every
// contribution over by reference, and a poll is a direct (serialized)
// handler call. No bytes ever hit a socket; wire statistics count
// messages and the priced payload bytes (Share's bytes) as the TCP
// transport would frame them.
//
// With a fabric the group is the simulator's interconnect. The last node
// to reach a collective charges it once, when no poll can be in flight: a
// barrier, then an all-gather of the largest contribution (an all-reduce
// for PhaseItemCounts, nothing more for the PhaseDeferred barrier). A
// poll charges a 16+4k·n-byte request and a 16+4n-byte reply between
// the two nodes' clocks.
type ChanExchange struct {
	id    int
	group *chanGroup
	stats WireStats

	pollMu sync.Mutex // serializes handler calls at this endpoint
	poll   PollHandler
}

// NewChanGroup returns the n connected endpoints of an in-process
// cluster, charging fabric (of n nodes) when it is non-nil.
func NewChanGroup(n int, fabric *cluster.Fabric) []*ChanExchange {
	if n <= 0 || (fabric != nil && fabric.N() != n) {
		panic(fmt.Sprintf("transport: NewChanGroup(%d) over a mismatched fabric", n))
	}
	g := &chanGroup{n: n, fabric: fabric, gathers: make(map[Phase]*gatherState), closed: make(chan struct{})}
	g.endpoints = make([]*ChanExchange, n)
	for i := range g.endpoints {
		g.endpoints[i] = &ChanExchange{id: i, group: g}
	}
	return g.endpoints
}

// NodeID returns this endpoint's node id.
func (e *ChanExchange) NodeID() int { return e.id }

// Nodes returns the cluster size.
func (e *ChanExchange) Nodes() int { return e.group.n }

// SetPollHandler installs the poll-answering function.
func (e *ChanExchange) SetPollHandler(h PollHandler) {
	e.pollMu.Lock()
	e.poll = h
	e.pollMu.Unlock()
}

// Stats returns the endpoint's wire counters.
func (e *ChanExchange) Stats() *WireStats { return &e.stats }

// Close tears down the whole in-process group: collectives still waiting
// for a node that will never arrive fail.
func (e *ChanExchange) Close() error {
	g := e.group
	g.closeOnce.Do(func() { close(g.closed) })
	return nil
}

// Share is the all-gather of nodes that share an address space: it
// contributes v and returns every node's value, indexed by node id, by
// reference and never serialized. bytes is the size v stands for, which
// the wire statistics and the fabric charge: for item counts and THT
// segments the paper's dense forms, which the TCP transport ships
// sparsely.
func (e *ChanExchange) Share(phase Phase, v any, bytes int64) ([]any, error) {
	g := e.group
	g.mu.Lock()
	st := g.gathers[phase]
	if st == nil {
		st = &gatherState{vals: make([]any, g.n), bytes: make([]int64, g.n), entered: make([]bool, g.n), done: make(chan struct{})}
		g.gathers[phase] = st
	}
	if st.entered[e.id] {
		g.mu.Unlock()
		return nil, fmt.Errorf("transport: node %d entered %s all-gather twice", e.id, phase)
	}
	st.entered[e.id] = true
	st.vals[e.id], st.bytes[e.id] = v, bytes
	st.got++
	if st.got == g.n {
		st.start, st.elapsed = g.charge(phase, slices.Max(st.bytes))
		close(st.done)
	}
	g.mu.Unlock()
	select {
	case <-st.done:
	case <-g.closed:
		return nil, fmt.Errorf("transport: node %d waiting in %s all-gather: exchange closed", e.id, phase)
	}
	e.stats.AddSent(1, frameHeaderLen+bytes)
	for i, b := range st.bytes {
		if i != e.id {
			e.stats.AddRecv(1, frameHeaderLen+b)
		}
	}
	g.mu.Lock()
	vals := st.vals
	if st.left++; st.left == g.n {
		st.vals = nil // the group outlives the run; the values need not
	}
	g.mu.Unlock()
	return vals, nil
}

// charge prices a collective every node has reached on the fabric and
// returns its simulated start and duration.
func (g *chanGroup) charge(phase Phase, maxBytes int64) (start, elapsed float64) {
	f := g.fabric
	if f == nil {
		return 0, 0
	}
	start = f.Barrier()
	switch phase {
	case PhaseItemCounts:
		elapsed = f.AllReduce(maxBytes)
	case PhaseDeferred:
	default:
		elapsed = f.AllGather(maxBytes)
	}
	return start, elapsed
}

// Collective returns the simulated start and duration of phase's
// collective: zeros without a fabric or before every node arrived.
func (e *ChanExchange) Collective(phase Phase) (start, elapsed float64) {
	g := e.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if st := g.gathers[phase]; st != nil && st.got == g.n {
		return st.start, st.elapsed
	}
	return 0, 0
}

// AllGather shares blob and returns every node's blob.
func (e *ChanExchange) AllGather(phase Phase, blob []byte) ([][]byte, error) {
	vals, err := e.Share(phase, blob, int64(len(blob)))
	if err != nil {
		return nil, err
	}
	blobs := make([][]byte, len(vals))
	for i, v := range vals {
		blobs[i] = v.([]byte)
	}
	return blobs, nil
}

// Poll invokes the peer's handler directly, serialized per endpoint
// exactly like the per-connection poll service of the TCP transport.
func (e *ChanExchange) Poll(peer, k int, sets []itemset.Itemset) ([]int32, error) {
	if peer < 0 || peer >= e.group.n || peer == e.id {
		return nil, fmt.Errorf("transport: node %d polling invalid peer %d", e.id, peer)
	}
	p := e.group.endpoints[peer]
	p.pollMu.Lock()
	h := p.poll
	var counts []int32
	if h != nil {
		counts = h(k, sets)
	}
	p.pollMu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("transport: node %d polled node %d before its handler was installed", e.id, peer)
	}
	if len(counts) != len(sets) {
		return nil, fmt.Errorf("transport: node %d replied %d counts for %d sets", peer, len(counts), len(sets))
	}
	if f := e.group.fabric; f != nil {
		f.ChargeSend(e.id, peer, int64(16+4*k*len(sets)))
		f.ChargeSend(peer, e.id, int64(16+4*len(counts)))
	}
	reqBytes := int64(frameHeaderLen + 8 + 4*k*len(sets))
	repBytes := int64(frameHeaderLen + 4 + 4*len(counts))
	e.stats.AddSent(1, reqBytes)
	e.stats.AddRecv(1, repBytes)
	p.stats.AddServedRecv(reqBytes)
	p.stats.AddServedSent(repBytes)
	return counts, nil
}
