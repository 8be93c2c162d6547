package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"pmihp/internal/cluster"
	"pmihp/internal/itemset"
)

// TCPOptions configures a TCPExchange endpoint.
type TCPOptions struct {
	// ClusterID identifies the mining session; connections carrying a
	// different id are rejected.
	ClusterID uint64
	// NodeID and Nodes give this endpoint's place in the cluster.
	NodeID, Nodes int
	// Peers lists the node listen addresses, indexed by node id (the
	// self entry is unused).
	Peers []string
	// Retry bounds dial/step retries; zero selects DefaultRetry.
	Retry RetryPolicy
	// IOTimeout is the per-read/write deadline on a connection; zero
	// selects 30s.
	IOTimeout time.Duration
	// WaitTimeout bounds how long a collective waits for a partner to
	// arrive at the same step; zero selects 120s.
	WaitTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.WaitTimeout <= 0 {
		o.WaitTimeout = 120 * time.Second
	}
	o.Retry = o.Retry.WithDefaults()
	return o
}

// cubeKey identifies one expected partner message of a collective.
type cubeKey struct {
	phase Phase
	step  uint8
	from  int32
}

// cubeEnvelope carries a partner's blobs from the accept handler to the
// collective, and the collective's response back.
type cubeEnvelope struct {
	blobs []NodeBlob
	reply chan []NodeBlob
}

// pollPeer is the persistent poll channel to one peer; one request is
// in flight at a time.
type pollPeer struct {
	mu   sync.Mutex
	conn net.Conn
}

// TCPExchange is the real-network Exchange: the n-cube all-gather runs
// over short-lived partner connections (lower node id dials), polls run
// over one persistent connection per directed peer pair, and every
// operation carries deadlines and bounded exponential-backoff retry.
// Exchange steps and polls are idempotent, so a dropped connection is
// retried by redialing and resending; a responder replays its answer to
// a retried cube step from a replay cache.
type TCPExchange struct {
	opt    TCPOptions
	stats  WireStats
	ctx    context.Context
	cancel context.CancelFunc

	pollMu      sync.Mutex // guards poll (handler installation)
	poll        PollHandler
	servePollMu sync.Mutex // serializes handler invocations

	mu        sync.Mutex
	mailboxes map[cubeKey]chan *cubeEnvelope
	replays   map[cubeKey][]NodeBlob
	pollPeers []*pollPeer
	served    map[net.Conn]struct{} // serving conns and dialed cube and poll conns, closed on Close
	closed    bool
}

// NewTCP returns a TCP exchange endpoint. The caller owns the listener;
// route accepted peer connections in with HandlePeerConn (after reading
// their Hello), or use Serve for a dedicated listener.
func NewTCP(opt TCPOptions) (*TCPExchange, error) {
	opt = opt.withDefaults()
	if opt.Nodes <= 0 || opt.NodeID < 0 || opt.NodeID >= opt.Nodes {
		return nil, fmt.Errorf("transport: invalid geometry: node %d of %d", opt.NodeID, opt.Nodes)
	}
	if len(opt.Peers) != opt.Nodes {
		return nil, fmt.Errorf("transport: %d peer addresses for %d nodes", len(opt.Peers), opt.Nodes)
	}
	ctx, cancel := context.WithCancel(context.Background())
	x := &TCPExchange{
		opt:       opt,
		ctx:       ctx,
		cancel:    cancel,
		mailboxes: make(map[cubeKey]chan *cubeEnvelope),
		replays:   make(map[cubeKey][]NodeBlob),
		pollPeers: make([]*pollPeer, opt.Nodes),
		served:    make(map[net.Conn]struct{}),
	}
	for i := range x.pollPeers {
		x.pollPeers[i] = &pollPeer{}
	}
	return x, nil
}

// NodeID returns this endpoint's node id.
func (x *TCPExchange) NodeID() int { return x.opt.NodeID }

// Nodes returns the cluster size.
func (x *TCPExchange) Nodes() int { return x.opt.Nodes }

// Stats returns the endpoint's wire counters.
func (x *TCPExchange) Stats() *WireStats { return &x.stats }

// SetPollHandler installs the poll-answering function.
func (x *TCPExchange) SetPollHandler(h PollHandler) {
	x.pollMu.Lock()
	x.poll = h
	x.pollMu.Unlock()
}

// Close cancels pending operations and closes every connection, which
// cuts any read blocked on one.
func (x *TCPExchange) Close() error {
	x.cancel()
	x.mu.Lock()
	x.closed = true
	for c := range x.served {
		c.Close()
	}
	x.served = make(map[net.Conn]struct{})
	x.mu.Unlock()
	return nil
}

// Serve accepts peer connections on ln, reads each Hello, and
// dispatches the connection. It returns when ln closes. The node
// daemon uses its own accept loop (its listener is shared with the
// coordinator control plane); Serve is for dedicated-listener setups
// and tests.
func (x *TCPExchange) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			conn.SetReadDeadline(time.Now().Add(x.opt.IOTimeout))
			t, payload, err := ReadFrame(conn, &x.stats)
			if err != nil || t != MsgHello {
				conn.Close()
				return
			}
			h, err := DecodeHello(payload)
			if err != nil || h.ClusterID != x.opt.ClusterID || h.To != int32(x.opt.NodeID) {
				conn.Close()
				return
			}
			x.HandlePeerConn(conn, h)
		}()
	}
}

// HandlePeerConn takes ownership of an accepted peer connection whose
// Hello has already been read and validated, and serves it until it
// closes. It returns immediately; serving runs on its own goroutine.
func (x *TCPExchange) HandlePeerConn(conn net.Conn, h Hello) {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		conn.Close()
		return
	}
	x.served[conn] = struct{}{}
	x.mu.Unlock()
	done := func() {
		x.mu.Lock()
		delete(x.served, conn)
		x.mu.Unlock()
		conn.Close()
	}
	switch h.Purpose {
	case PurposeCube:
		go func() { defer done(); x.serveCubeConn(conn) }()
	case PurposePoll:
		go func() { defer done(); x.servePollConn(conn) }()
	default:
		done()
	}
}

// dialPeer makes one connection attempt to a peer and sends the Hello.
func (x *TCPExchange) dialPeer(peer int, purpose uint8) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", x.opt.Peers[peer], x.opt.IOTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(x.opt.IOTimeout))
	hello := AppendHello(nil, Hello{ClusterID: x.opt.ClusterID, From: int32(x.opt.NodeID), To: int32(peer), Purpose: purpose})
	if err := WriteFrame(conn, MsgHello, hello, &x.stats); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// ---- collectives ----

// AllGather distributes blob across the cluster. For power-of-two
// cluster sizes it runs the paper's logical binary n-cube: at step d
// each node exchanges everything gathered so far with its dimension-d
// partner, so the data volume doubles per step and the collective
// completes in log2(n) steps. For other sizes it falls back to a star
// through node 0 (gather, then broadcast of the full set) — the cube
// pairing is incomplete off powers of two; see DESIGN.md §2.
func (x *TCPExchange) AllGather(phase Phase, blob []byte) ([][]byte, error) {
	n, self := x.opt.Nodes, x.opt.NodeID
	blobs := make([][]byte, n)
	blobs[self] = blob
	if n == 1 {
		return blobs, nil
	}
	if n&(n-1) == 0 {
		for d := 0; d < cluster.CubeSteps(n); d++ {
			partner := self ^ (1 << d)
			mine := collectBlobs(blobs)
			var theirs []NodeBlob
			var err error
			if self < partner {
				theirs, err = x.cubeCall(phase, uint8(d), partner, mine)
			} else {
				theirs, err = x.cubeAnswer(phase, uint8(d), int32(partner), mine)
			}
			if err != nil {
				return nil, fmt.Errorf("node %d: %s all-gather step %d with node %d (%s): %w",
					self, phase, d, partner, x.opt.Peers[partner], err)
			}
			if err := mergeBlobs(blobs, theirs); err != nil {
				return nil, fmt.Errorf("node %d: %s all-gather step %d: %w", self, phase, d, err)
			}
		}
	} else if self == 0 {
		// Star hub: collect every spoke's blob, then answer each with
		// the full set.
		envs := make([]*cubeEnvelope, 0, n-1)
		for got := 0; got < n-1; got++ {
			env, from, err := x.awaitAnyCube(phase, 0)
			if err != nil {
				return nil, fmt.Errorf("node 0: %s star gather: %w", phase, err)
			}
			if err := mergeBlobs(blobs, env.blobs); err != nil {
				return nil, fmt.Errorf("node 0: %s star gather from node %d: %w", phase, from, err)
			}
			envs = append(envs, env)
		}
		full := collectBlobs(blobs)
		for _, env := range envs {
			env.reply <- full
		}
	} else {
		theirs, err := x.cubeCall(phase, 0, 0, collectBlobs(blobs))
		if err != nil {
			return nil, fmt.Errorf("node %d: %s star exchange with node 0 (%s): %w",
				self, phase, x.opt.Peers[0], err)
		}
		if err := mergeBlobs(blobs, theirs); err != nil {
			return nil, fmt.Errorf("node %d: %s star exchange: %w", self, phase, err)
		}
	}
	for i, b := range blobs {
		if b == nil {
			return nil, fmt.Errorf("node %d: %s all-gather finished without node %d's contribution", self, phase, i)
		}
	}
	return blobs, nil
}

// collectBlobs snapshots the currently gathered contributions.
func collectBlobs(blobs [][]byte) []NodeBlob {
	var out []NodeBlob
	for i, b := range blobs {
		if b != nil {
			out = append(out, NodeBlob{Node: int32(i), Data: b})
		}
	}
	return out
}

// mergeBlobs folds a partner's contributions in, validating node ids.
func mergeBlobs(blobs [][]byte, in []NodeBlob) error {
	for _, nb := range in {
		if nb.Node < 0 || int(nb.Node) >= len(blobs) {
			return fmt.Errorf("blob for unknown node %d", nb.Node)
		}
		if blobs[nb.Node] == nil {
			blobs[nb.Node] = nb.Data
		}
	}
	return nil
}

// cubeCall is the dialing side of one exchange step: send my gathered
// blobs, receive the partner's. Retried as a whole on failure.
func (x *TCPExchange) cubeCall(phase Phase, step uint8, peer int, mine []NodeBlob) ([]NodeBlob, error) {
	req := AppendCubeBlock(nil, CubeBlock{Phase: phase, Step: step, From: int32(x.opt.NodeID), Blobs: mine})
	var out []NodeBlob
	err := Retry(x.ctx, x.opt.Retry, &x.stats, func() error {
		conn, err := x.dialPeer(peer, PurposeCube)
		if err != nil {
			return err
		}
		if !x.track(conn) {
			return Permanent(fmt.Errorf("exchange closed"))
		}
		defer x.untrack(conn)
		conn.SetDeadline(time.Now().Add(x.opt.WaitTimeout))
		if err := WriteFrame(conn, MsgCubeBlock, req, &x.stats); err != nil {
			return err
		}
		t, payload, err := ReadFrame(conn, &x.stats)
		if err != nil {
			return err
		}
		switch t {
		case MsgCubeBlock:
			blk, err := DecodeCubeBlock(payload)
			if err != nil {
				return Permanent(err)
			}
			out = blk.Blobs
			return nil
		case MsgError:
			em, _ := DecodeError(payload)
			return Permanent(fmt.Errorf("peer reported: %s", em.Text))
		default:
			return Permanent(fmt.Errorf("unexpected reply type %d to cube block", t))
		}
	})
	return out, err
}

// track registers a dialed conn so Close can cut a read blocked on it:
// the answering peer may be gone for good (session superseded, attempt
// aborted), and waiting out the full WaitTimeout or IOTimeout would keep
// this node's session registered long after its teardown. It closes the
// conn and reports false when the exchange is already closed.
func (x *TCPExchange) track(conn net.Conn) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		conn.Close()
		return false
	}
	x.served[conn] = struct{}{}
	return true
}

// untrack closes a tracked conn and forgets it.
func (x *TCPExchange) untrack(conn net.Conn) {
	x.mu.Lock()
	delete(x.served, conn)
	x.mu.Unlock()
	conn.Close()
}

// cubeAnswer is the answering side: wait for the partner's block to be
// delivered by the accept handler, hand it my gathered blobs to send
// back, and return the partner's.
//
// Every wait of the exchange stops its WaitTimeout timer when it ends:
// under the module's go 1.22 timer semantics an unstopped timer (as
// time.After leaves it) stays live for the whole timeout, which is
// minutes against a cube step's milliseconds.
func (x *TCPExchange) cubeAnswer(phase Phase, step uint8, from int32, mine []NodeBlob) ([]NodeBlob, error) {
	ch := x.mailbox(cubeKey{phase, step, from})
	timeout := time.NewTimer(x.opt.WaitTimeout)
	defer timeout.Stop()
	select {
	case env := <-ch:
		env.reply <- mine
		return env.blobs, nil
	case <-timeout.C:
		return nil, fmt.Errorf("timed out after %v waiting for partner", x.opt.WaitTimeout)
	case <-x.ctx.Done():
		return nil, fmt.Errorf("exchange closed while waiting for partner")
	}
}

// awaitAnyCube waits for a step-0 block from any node (the star hub's
// gather), returning its envelope and origin.
func (x *TCPExchange) awaitAnyCube(phase Phase, step uint8) (*cubeEnvelope, int32, error) {
	// The hub does not know arrival order; wait on all spokes' boxes.
	n := x.opt.Nodes
	cases := make([]chan *cubeEnvelope, n)
	for i := 1; i < n; i++ {
		cases[i] = x.mailbox(cubeKey{phase, step, int32(i)})
	}
	deadline := time.NewTimer(x.opt.WaitTimeout)
	defer deadline.Stop()
	for {
		for i := 1; i < n; i++ {
			select {
			case env := <-cases[i]:
				return env, int32(i), nil
			default:
			}
		}
		select {
		case <-deadline.C:
			return nil, 0, fmt.Errorf("timed out after %v waiting for spokes", x.opt.WaitTimeout)
		case <-x.ctx.Done():
			return nil, 0, fmt.Errorf("exchange closed while gathering")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// mailbox returns (creating if needed) the delivery channel for one
// expected partner message.
func (x *TCPExchange) mailbox(key cubeKey) chan *cubeEnvelope {
	x.mu.Lock()
	defer x.mu.Unlock()
	ch := x.mailboxes[key]
	if ch == nil {
		ch = make(chan *cubeEnvelope, 4)
		x.mailboxes[key] = ch
	}
	return ch
}

// serveCubeConn handles one incoming exchange-step connection: deliver
// the partner's block to the local collective, send back what the
// collective supplies. A replayed step (the partner retried after a
// drop) is answered from the replay cache without involving the
// collective again.
func (x *TCPExchange) serveCubeConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(x.opt.WaitTimeout))
	t, payload, err := ReadFrame(conn, &x.stats)
	if err != nil || t != MsgCubeBlock {
		return
	}
	blk, err := DecodeCubeBlock(payload)
	if err != nil {
		WriteFrame(conn, MsgError, AppendError(nil, ErrorMsg{Text: "bad cube block: " + err.Error()}), &x.stats)
		return
	}
	key := cubeKey{blk.Phase, blk.Step, blk.From}
	x.mu.Lock()
	reply, replay := x.replays[key]
	x.mu.Unlock()
	if !replay {
		env := &cubeEnvelope{blobs: blk.Blobs, reply: make(chan []NodeBlob, 1)}
		delivered := time.NewTimer(x.opt.WaitTimeout)
		defer delivered.Stop()
		select {
		case x.mailbox(key) <- env:
		case <-delivered.C:
			return
		case <-x.ctx.Done():
			return
		}
		answered := time.NewTimer(x.opt.WaitTimeout)
		defer answered.Stop()
		select {
		case reply = <-env.reply:
		case <-answered.C:
			return
		case <-x.ctx.Done():
			return
		}
		x.mu.Lock()
		x.replays[key] = reply
		x.mu.Unlock()
	}
	out := AppendCubeBlock(nil, CubeBlock{Phase: blk.Phase, Step: blk.Step, From: int32(x.opt.NodeID), Blobs: reply})
	WriteFrame(conn, MsgCubeBlock, out, &x.stats)
}

// ---- polls ----

// Poll sends a candidate batch to a peer over the persistent poll
// connection, redialing and resending on transient failures (counting
// is read-only at the peer, so resends are safe).
func (x *TCPExchange) Poll(peer, k int, sets []itemset.Itemset) ([]int32, error) {
	if peer < 0 || peer >= x.opt.Nodes || peer == x.opt.NodeID {
		return nil, fmt.Errorf("transport: node %d polling invalid peer %d", x.opt.NodeID, peer)
	}
	items := make([]uint32, 0, k*len(sets))
	for _, s := range sets {
		if len(s) != k {
			return nil, fmt.Errorf("transport: %d-itemset in a k=%d poll batch", len(s), k)
		}
		items = append(items, s...)
	}
	req := AppendCandidateBatch(nil, CandidateBatch{K: int32(k), Items: items})
	pp := x.pollPeers[peer]
	pp.mu.Lock()
	defer pp.mu.Unlock()
	var counts []int32
	err := Retry(x.ctx, x.opt.Retry, &x.stats, func() error {
		if pp.conn == nil {
			conn, err := x.dialPeer(peer, PurposePoll)
			if err != nil {
				return err
			}
			if !x.track(conn) {
				return Permanent(fmt.Errorf("exchange closed"))
			}
			pp.conn = conn
		}
		conn := pp.conn
		fail := func(err error) error {
			x.untrack(conn)
			pp.conn = nil
			return err
		}
		conn.SetDeadline(time.Now().Add(x.opt.IOTimeout))
		if err := WriteFrame(conn, MsgCandidateBatch, req, &x.stats); err != nil {
			return fail(err)
		}
		t, payload, err := ReadFrame(conn, &x.stats)
		if err != nil {
			return fail(err)
		}
		switch t {
		case MsgCountVector:
			cv, err := DecodeCountVector(payload)
			if err != nil {
				return fail(Permanent(err))
			}
			if len(cv.Counts) != len(sets) {
				return fail(Permanent(fmt.Errorf("peer replied %d counts for %d sets", len(cv.Counts), len(sets))))
			}
			counts = cv.Counts
			return nil
		case MsgError:
			em, _ := DecodeError(payload)
			return fail(Permanent(fmt.Errorf("peer reported: %s", em.Text)))
		default:
			return fail(Permanent(fmt.Errorf("unexpected reply type %d to candidate batch", t)))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("node %d: polling node %d (%s): %w", x.opt.NodeID, peer, x.opt.Peers[peer], err)
	}
	return counts, nil
}

// servePollConn answers candidate batches on one incoming poll
// connection until it closes.
func (x *TCPExchange) servePollConn(conn net.Conn) {
	for {
		conn.SetReadDeadline(time.Now().Add(x.opt.WaitTimeout))
		t, payload, err := ReadFrame(conn, &x.stats)
		if err != nil {
			return
		}
		if t != MsgCandidateBatch {
			WriteFrame(conn, MsgError, AppendError(nil, ErrorMsg{Text: fmt.Sprintf("unexpected message type %d on poll channel", t)}), &x.stats)
			return
		}
		cb, err := DecodeCandidateBatch(payload)
		if err != nil {
			WriteFrame(conn, MsgError, AppendError(nil, ErrorMsg{Text: "bad candidate batch: " + err.Error()}), &x.stats)
			return
		}
		x.pollMu.Lock()
		h := x.poll
		x.pollMu.Unlock()
		if h == nil {
			WriteFrame(conn, MsgError, AppendError(nil, ErrorMsg{Text: "poll handler not installed"}), &x.stats)
			return
		}
		sets := cb.Sets()
		x.servePollMu.Lock()
		counts := h(int(cb.K), sets)
		x.servePollMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(x.opt.IOTimeout))
		if err := WriteFrame(conn, MsgCountVector, AppendCountVector(nil, CountVector{Counts: counts}), &x.stats); err != nil {
			return
		}
	}
}
